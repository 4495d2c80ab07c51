package parallel

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/faultinject"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

func TestModeString(t *testing.T) {
	if ModePacked.String() != "packed" || ModeView.String() != "view" || ModeShared.String() != "shared" {
		t.Fatalf("mode names: %v / %v / %v", ModePacked, ModeView, ModeShared)
	}
	if ModeSharedPipelined.String() != "shared-pipelined" {
		t.Fatalf("pipelined mode name: %v", ModeSharedPipelined)
	}
	if !strings.Contains(Mode(9).String(), "9") {
		t.Fatal("unknown mode should include numeric value")
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("strided"); err == nil {
		t.Fatal("unknown mode name must be rejected")
	}
}

func TestNewExecutorRejectsUnknownMode(t *testing.T) {
	team, _ := NewTeam(1)
	defer team.Close()
	tr, _ := matrix.NewTriple(2, 2, 2, 4, 1)
	if _, err := NewExecutor(team, tr, nil, Mode(9), 3, 9); err == nil {
		t.Fatal("unknown mode must be rejected")
	}
}

// The staging modes need real capacities up front: a packed executor
// without core arena blocks, or a shared executor without shared arena
// blocks, cannot realise the schedule it exists for.
func TestNewExecutorRejectsMissingCapacities(t *testing.T) {
	team, _ := NewTeam(1)
	defer team.Close()
	tr, _ := matrix.NewTriple(2, 2, 2, 4, 1)
	if _, err := NewExecutor(team, tr, nil, ModePacked, 0, 9); err == nil {
		t.Fatal("packed executor without core capacity must be rejected")
	}
	if _, err := NewExecutor(team, tr, nil, ModeShared, 3, 0); err == nil {
		t.Fatal("shared executor without shared capacity must be rejected")
	}
	if _, err := NewExecutor(team, tr, nil, ModeView, 0, 0); err != nil {
		t.Fatal("view executor needs no capacities")
	}
}

// All executor modes must agree with the sequential reference for the
// whole registry; the packed mode is additionally the default used
// everywhere else, so this pins down that ModeView stays correct as a
// benchmark baseline and ModeShared as the two-level hierarchy.
func TestAllModesMatchReference(t *testing.T) {
	mach := testMachine(4)
	for _, name := range algorithms() {
		for _, mode := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
			tr, err := matrix.NewTriple(6, 5, 4, mach.Q, 11)
			if err != nil {
				t.Fatal(err)
			}
			if err := Multiply(name, tr, mach, mode, DefaultTuning, nil); err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			diff, err := Verify(tr)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-10 {
				t.Fatalf("%s/%v: result deviates by %g", name, mode, diff)
			}
		}
	}
}

// A program whose declared resources cannot hold its measured working
// set must be rejected before any execution happens.
func TestRunRejectsOverclaimedWorkingSet(t *testing.T) {
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	tr, err := matrix.NewTriple(2, 2, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(team, tr, nil, ModePacked, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	prog := &schedule.Program{
		Algorithm: "overclaim",
		Cores:     1,
		Resources: schedule.Resources{CoreBlocks: 1},
		Body: func(b schedule.Backend) {
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(schedule.LineA(0, 0))
				ops.Stage(schedule.LineB(0, 0)) // 2 resident > declared CD=1
				ops.Compute(0, 0, 0)
			})
		},
	}
	err = ex.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "CD=1") {
		t.Fatalf("overclaimed working set not rejected: %v", err)
	}
}

// A program that needs more arena blocks than the executor allocated
// must be rejected up front, not fail mid-run.
func TestRunRejectsUndersizedArena(t *testing.T) {
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	tr, err := matrix.NewTriple(2, 2, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(team, tr, nil, ModePacked, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	prog := &schedule.Program{
		Algorithm: "big-footprint",
		Cores:     1,
		Resources: schedule.Resources{CoreBlocks: 8},
		Body: func(b schedule.Backend) {
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(schedule.LineA(0, 0))
				ops.Stage(schedule.LineB(0, 0))
				ops.Stage(schedule.LineC(0, 0))
				ops.Compute(0, 0, 0)
			})
		},
	}
	err = ex.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "arena blocks") {
		t.Fatalf("undersized arena not rejected: %v", err)
	}
}

// A schedule that stages and computes but forgets to unstage must still
// produce the right C: the end-of-program flush writes dirty arena
// tiles back, mirroring the simulated hierarchy's Flush. In ModeShared
// the same flush must drain top-down (core → shared → memory) so the
// freshest copy wins.
func TestRunFlushesSloppySchedules(t *testing.T) {
	const q = 4
	prog := &schedule.Program{
		Algorithm: "sloppy",
		Cores:     1,
		Resources: schedule.Resources{SharedBlocks: 3, CoreBlocks: 3},
		Body: func(b schedule.Backend) {
			b.StageShared(schedule.LineA(0, 0))
			b.StageShared(schedule.LineB(0, 0))
			b.StageShared(schedule.LineC(0, 0))
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(schedule.LineA(0, 0))
				ops.Stage(schedule.LineB(0, 0))
				ops.Stage(schedule.LineC(0, 0))
				ops.Compute(0, 0, 0)
				// no Unstage at either level: the C update lives only in
				// the core arena here
			})
		},
	}
	for _, mode := range []Mode{ModePacked, ModeShared, ModeSharedPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			team, err := NewTeam(1)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			tr, err := matrix.NewTriple(1, 1, 1, q, 5)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(team, tr, nil, mode, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(prog); err != nil {
				t.Fatal(err)
			}
			diff, err := Verify(tr)
			if err != nil {
				t.Fatal(err)
			}
			if diff > 1e-12 {
				t.Fatalf("flushed result deviates by %g", diff)
			}
		})
	}
}

// Prepare-once/run-many, as cmd/gemm -bench-json does: the second Run
// of the same program on the same Executor must start from clean
// arenas — no tile left resident, no stale dirty copy written back a
// second time — and therefore reproduce the first run exactly,
// bit for bit.
func TestRunTwiceStartsFromCleanArenas(t *testing.T) {
	mach := testMachine(4)
	for _, name := range []string{"Shared Opt.", "Distributed Opt.", "Tradeoff"} {
		for _, mode := range []Mode{ModePacked, ModeShared, ModeSharedPipelined} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				tr, err := matrix.NewTriple(6, 5, 4, mach.Q, 19)
				if err != nil {
					t.Fatal(err)
				}
				a, err := algo.ByName(name)
				if err != nil {
					t.Fatal(err)
				}
				m, n, z := tr.Dims()
				prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
				if err != nil {
					t.Fatal(err)
				}
				team, err := NewTeam(mach.P)
				if err != nil {
					t.Fatal(err)
				}
				defer team.Close()
				ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
				if err != nil {
					t.Fatal(err)
				}
				if err := ex.Run(prog); err != nil {
					t.Fatalf("first run: %v", err)
				}
				first := tr.C.Dense().Clone()
				firstTraffic := ex.Traffic()
				tr.C.Dense().Zero()
				if err := ex.Run(prog); err != nil {
					t.Fatalf("second run: %v", err)
				}
				if diff := tr.C.Dense().MaxAbsDiff(first); diff != 0 {
					t.Fatalf("second run deviates from a fresh run by %g — arenas were not clean", diff)
				}
				if ex.Traffic() != firstTraffic {
					t.Fatalf("second run traffic %+v differs from first %+v", ex.Traffic(), firstTraffic)
				}
			})
		}
	}
}

// A packed Executor must be reusable across programs with different
// staging styles: arenas allocated for a staged program must not leak
// into a later demand-driven program's computes.
func TestPackedExecutorReuseAcrossStagingStyles(t *testing.T) {
	mach := testMachine(4)
	tr, err := matrix.NewTriple(5, 4, 3, mach.Q, 31)
	if err != nil {
		t.Fatal(err)
	}
	team, err := NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, ModePacked, mach.CD, mach.CS)
	if err != nil {
		t.Fatal(err)
	}
	m, n, z := tr.Dims()
	w := algo.Workload{M: m, N: n, Z: z}
	for _, name := range []string{"Tradeoff", "Outer Product", "Distributed Opt."} {
		a, err := algo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Schedule(mach, w)
		if err != nil {
			t.Fatal(err)
		}
		if err := ex.Run(prog); err != nil {
			t.Fatalf("%s on reused executor: %v", name, err)
		}
	}
	// Three accumulating runs: C must hold 3·(A×B).
	want, err := Reference(tr)
	if err != nil {
		t.Fatal(err)
	}
	want.Scale(3)
	if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-9 {
		t.Fatalf("reused executor deviates by %g", diff)
	}
}

// A shared-level Executor addresses its core and shared arenas by the
// line IDs of the trace it replays, and different programs number the
// same lines differently. Reused across three staged programs, then the
// first again, and once more after a run that failed with tiles staged
// and a Reset, every run must equal a fresh executor's run of the same
// program bit for bit, traffic included.
func TestSharedExecutorReuseAcrossPrograms(t *testing.T) {
	mach := testMachine(2)
	mach.Chips = 2
	const seed = 31
	newTriple := func() *matrix.Triple {
		tr, err := matrix.NewTriple(5, 4, 3, mach.Q, seed)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	m, n, z := newTriple().Dims()
	var progs []*schedule.Program
	for _, name := range []string{"Shared Opt.", "Tradeoff", "Distributed Opt."} {
		a, err := algo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	run := func(ex *Executor, tr *matrix.Triple, prog *schedule.Program) {
		t.Helper()
		tr.C.Dense().Zero()
		if err := ex.Run(prog); err != nil {
			t.Fatalf("%s: %v", prog.Algorithm, err)
		}
	}
	for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
		for _, opt := range []bool{false, true} {
			tun := Tuning{Optimize: opt}
			team, err := NewTeam(mach.P)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			tr := newTriple()
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				t.Fatal(err)
			}
			ex.SetTuning(tun)
			check := func(prog *schedule.Program, when string) {
				t.Helper()
				run(ex, tr, prog)
				fresh := newTriple()
				fex, err := NewExecutor(team, fresh, nil, mode, mach.CD, mach.CS)
				if err != nil {
					t.Fatal(err)
				}
				fex.SetTuning(tun)
				run(fex, fresh, prog)
				if !bitEqual(tr.C.Dense(), fresh.C.Dense()) {
					t.Fatalf("%v optimize=%v %s %s: reused executor's product differs from a fresh one's", mode, opt, prog.Algorithm, when)
				}
				if got, want := ex.Traffic(), fex.Traffic(); got != want {
					t.Fatalf("%v optimize=%v %s %s: reused executor's traffic %+v, fresh %+v", mode, opt, prog.Algorithm, when, got, want)
				}
			}
			for _, prog := range progs {
				check(prog, "in sequence")
			}
			check(progs[0], "run again")
			ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
				Core: 0, OpIndex: -1, Ops: faultinject.Mask(faultinject.Unstage),
				Action: faultinject.Action{Kind: faultinject.ActError},
			}}})
			if err := ex.Run(progs[1]); !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%v optimize=%v: faulted run returned %v", mode, opt, err)
			}
			ex.SetFaultInjector(nil)
			ex.Reset()
			check(progs[0], "after a failed run and Reset")
		}
	}
}

// A staged program that computes on a block it forgot to stage must
// fail loudly, exactly as referencing a non-resident line does under
// IDEAL — a silent strided fallback would let staging-discipline bugs
// corrupt the packed benchmark numbers undetected.
func TestPackedComputeRequiresResidentOperands(t *testing.T) {
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	tr, err := matrix.NewTriple(1, 1, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog := &schedule.Program{
		Algorithm: "forgot-to-stage-C",
		Cores:     1,
		Resources: schedule.Resources{CoreBlocks: 3},
		Body: func(b schedule.Backend) {
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(schedule.LineA(0, 0))
				ops.Stage(schedule.LineB(0, 0))
				ops.Compute(0, 0, 0) // C never staged
			})
		},
	}
	ex, err := NewExecutor(team, tr, nil, ModePacked, 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "non-resident") {
		t.Fatalf("unstaged compute operand not rejected: %v", err)
	}
}

// The packed executor materialises only the per-core level, so a
// schedule that overclaims the *shared* cache by a block or two (some
// emitters do on tiny machines) must still execute: shared staging is a
// probe-only hint there and must not gate real execution.
func TestPackedExecutorIgnoresSharedOverclaim(t *testing.T) {
	// Tradeoff on this machine emits α=2, β=1: α²+2αβ = 8 > CS = 7.
	mach := machine.Machine{P: 1, CS: 7, CD: 7, SigmaS: 1, SigmaD: 4, Q: 4}
	tr, err := matrix.NewTriple(2, 3, 5, mach.Q, 13)
	if err != nil {
		t.Fatal(err)
	}
	if err := Multiply("Tradeoff", tr, mach, ModePacked, DefaultTuning, nil); err != nil {
		t.Fatalf("shared overclaim must not gate execution: %v", err)
	}
	diff, err := Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-10 {
		t.Fatalf("result deviates by %g", diff)
	}
}

// In ModeShared the same overclaim is a real overflow of the CS-sized
// shared arena and must be rejected up front, before anything runs.
func TestSharedExecutorRejectsSharedOverclaim(t *testing.T) {
	mach := machine.Machine{P: 1, CS: 7, CD: 7, SigmaS: 1, SigmaD: 4, Q: 4}
	tr, err := matrix.NewTriple(2, 3, 5, mach.Q, 13)
	if err != nil {
		t.Fatal(err)
	}
	err = Multiply("Tradeoff", tr, mach, ModeShared, DefaultTuning, nil)
	if err == nil || !strings.Contains(err.Error(), "CS=7") {
		t.Fatalf("shared overclaim must be rejected in ModeShared: %v", err)
	}
}

// The packed executor must accept ragged coefficient dimensions: edge
// tiles smaller than q×q flow through Pack/MulAddPacked/Unpack.
func TestPackedExecutorRaggedTiles(t *testing.T) {
	mach := testMachine(4)
	// 13×11 · 11×7 with q=4: no dimension is a multiple of q.
	tr, err := matrix.NewTripleDims(13, 7, 11, 4, 21)
	if err != nil {
		t.Fatal(err)
	}
	mq := mach
	mq.Q = 4
	if err := Multiply("Tradeoff", tr, mq, ModePacked, DefaultTuning, nil); err != nil {
		t.Fatal(err)
	}
	want := matrix.New(13, 7)
	if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
		t.Fatal(err)
	}
	if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-10 {
		t.Fatalf("ragged packed result deviates by %g", diff)
	}
}

// The inclusion discipline is enforced physically: unstaging a shared
// block while a core arena still holds it must fail, exactly as
// EvictShared does under IDEAL.
func TestSharedUnstageWhileCoreResidentFails(t *testing.T) {
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	tr, err := matrix.NewTriple(1, 1, 1, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	prog := &schedule.Program{
		Algorithm: "inclusion-breaker",
		Cores:     1,
		Resources: schedule.Resources{SharedBlocks: 3, CoreBlocks: 3},
		Body: func(b schedule.Backend) {
			b.StageShared(schedule.LineA(0, 0))
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(schedule.LineA(0, 0))
			})
			b.UnstageShared(schedule.LineA(0, 0)) // core 0 still holds it
		},
	}
	ex, err := NewExecutor(team, tr, nil, ModeShared, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "still holds") {
		t.Fatalf("inclusion violation not rejected: %v", err)
	}
	// The phase planner proves inclusion statically, so the violation is
	// a pre-flight rejection: nothing moved and nothing is quarantined.
	if err := ex.Err(); err != nil {
		t.Fatalf("pre-flight rejection quarantined the executor: %v", err)
	}
	if got := ex.Traffic(); got != (Traffic{}) {
		t.Fatalf("rejected program moved data: %+v", got)
	}
}

// A nil program is a pre-flight rejection in every mode: Run returns an
// error instead of panicking, nothing runs, and the executor stays in
// service.
func TestRunNilProgramIsPreflight(t *testing.T) {
	for _, mode := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
		t.Run(mode.String(), func(t *testing.T) {
			team, err := NewTeam(1)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			tr, err := matrix.NewTriple(1, 1, 1, 4, 3)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(team, tr, nil, mode, 3, 3)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(nil); err == nil || !strings.Contains(err.Error(), "nil program") {
				t.Fatalf("Run(nil) = %v, want a nil-program error", err)
			}
			if err := ex.Err(); err != nil {
				t.Fatalf("Run(nil) quarantined the executor: %v", err)
			}
			if got := ex.Traffic(); got != (Traffic{}) {
				t.Fatalf("Run(nil) moved data: %+v", got)
			}
		})
	}
}
