package parallel

import (
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The pipelined executor's contract in one test: for every algorithm
// and a ragged shape, ModeSharedPipelined must produce a C bitwise
// identical to ModeShared's and report exactly the same per-level,
// per-core traffic — only the timing may differ. (Stream equivalence
// against the simulator is covered with the other physical modes in
// equivalence_test.go.)
func TestPipelinedMatchesSerialSharedBitwise(t *testing.T) {
	mach := testMachine(4)
	const q = 4
	shapes := [][3]int{
		{13, 7, 11}, // ragged in every coefficient dimension
		{16, 16, 16},
	}
	for _, a := range algo.Extended() {
		for _, s := range shapes {
			rows, cols, inner := s[0], s[1], s[2]
			run := func(mode Mode) (*matrix.Dense, Traffic, []LevelTraffic) {
				t.Helper()
				tr, err := matrix.NewTripleDims(rows, cols, inner, q, 41)
				if err != nil {
					t.Fatal(err)
				}
				mq := mach
				mq.Q = q
				if err := Multiply(a.Name(), tr, mq, mode, DefaultTuning, nil); err != nil {
					t.Fatalf("%s %v %v: %v", a.Name(), s, mode, err)
				}
				team, err := NewTeam(mach.P)
				if err != nil {
					t.Fatal(err)
				}
				defer team.Close()
				// Re-run on a persistent executor to harvest per-core traffic.
				tr2, err := matrix.NewTripleDims(rows, cols, inner, q, 41)
				if err != nil {
					t.Fatal(err)
				}
				m, n, z := tr2.Dims()
				prog, err := a.Schedule(mq, algo.Workload{M: m, N: n, Z: z})
				if err != nil {
					t.Fatal(err)
				}
				ex, err := NewExecutor(team, tr2, nil, mode, mach.CD, mach.CS)
				if err != nil {
					t.Fatal(err)
				}
				if err := ex.Run(prog); err != nil {
					t.Fatalf("%s %v %v: %v", a.Name(), s, mode, err)
				}
				perCore := make([]LevelTraffic, mach.P)
				for c := range perCore {
					perCore[c] = ex.CoreTraffic(c)
				}
				if d := tr.C.Dense().MaxAbsDiff(tr2.C.Dense()); d != 0 {
					t.Fatalf("%s %v %v: Multiply and persistent executor disagree by %g", a.Name(), s, mode, d)
				}
				return tr2.C.Dense(), ex.Traffic(), perCore
			}
			serialC, serialT, serialCores := run(ModeShared)
			pipeC, pipeT, pipeCores := run(ModeSharedPipelined)
			if d := pipeC.MaxAbsDiff(serialC); d != 0 {
				t.Fatalf("%s %v: pipelined C deviates from serial shared C by %g", a.Name(), s, d)
			}
			if pipeT != serialT {
				t.Fatalf("%s %v: pipelined traffic %+v differs from serial %+v", a.Name(), s, pipeT, serialT)
			}
			for c := range serialCores {
				if pipeCores[c] != serialCores[c] {
					t.Fatalf("%s %v core %d: pipelined MD %+v differs from serial %+v",
						a.Name(), s, c, pipeCores[c], serialCores[c])
				}
			}
		}
	}
}

// A staged pipelined run must expose its phase plan, and for the
// staging-friendly schedules the plan must actually move work off the
// critical path — otherwise the mode is ModeShared with extra steps.
func TestPipelinedPlanFindsOverlap(t *testing.T) {
	mach := testMachine(4)
	tr, err := matrix.NewTriple(6, 6, 6, mach.Q, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Schedule(mach, algo.Workload{M: 6, N: 6, Z: 6})
	if err != nil {
		t.Fatal(err)
	}
	team, err := NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, ModeSharedPipelined, mach.CD, mach.CS)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(prog); err != nil {
		t.Fatal(err)
	}
	plan := ex.Plan()
	if plan == nil {
		t.Fatal("no pipeline plan exposed after a staged pipelined run")
	}
	if plan.Hoisted+plan.Retired == 0 {
		t.Fatalf("plan found no overlap for Shared Opt. (barriered %d): %+v", plan.Barriered, plan)
	}
	if plan.Peak > mach.CS {
		t.Fatalf("planned 2-region footprint %d exceeds CS=%d", plan.Peak, mach.CS)
	}
	if got := plan.Overlapped(); got <= 0 || got > 1 {
		t.Fatalf("overlap fraction %g out of range", got)
	}
}

// ModeShared runs its memory↔shared stream from a schedule.PlanSerial
// plan: after a staged run the executor exposes it, with every driver
// op of the program a barrier op and nothing overlapped.
func TestSharedPlanIsAllBarrier(t *testing.T) {
	mach := testMachine(4)
	w := algo.Workload{M: 6, N: 5, Z: 4}
	for _, a := range algo.Extended() {
		prog, err := a.Schedule(mach, w)
		if err != nil {
			t.Fatal(err)
		}
		if prog.DemandDriven {
			continue
		}
		ws, err := schedule.Measure(prog)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := matrix.NewTriple(w.M, w.N, w.Z, mach.Q, 3)
		if err != nil {
			t.Fatal(err)
		}
		team, err := NewTeam(mach.P)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(team, tr, nil, ModeShared, mach.CD, mach.CS)
		if err != nil {
			team.Close()
			t.Fatal(err)
		}
		err = ex.Run(prog)
		team.Close()
		if err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		plan := ex.Plan()
		if plan == nil {
			t.Fatalf("%s: no phase plan exposed after a staged ModeShared run", a.Name())
		}
		if plan.Hoisted != 0 || plan.Retired != 0 || plan.Overlapped() != 0 {
			t.Fatalf("%s: ModeShared plan overlaps staging: %+v", a.Name(), plan)
		}
		if want := int(ws.SharedStages + ws.SharedUnstages); plan.Barriered != want {
			t.Fatalf("%s: plan barriers %d ops, program has %d driver ops", a.Name(), plan.Barriered, want)
		}
	}
}

// The schedule bug the serial executor faults on at runtime — a shared
// unstage while a core still holds the line — must fail in the
// pipelined mode too, via the planner's static check, before anything
// executes.
func TestPipelinedRejectsInclusionViolation(t *testing.T) {
	l := schedule.LineA(0, 0)
	prog := &schedule.Program{
		Algorithm: "inclusion",
		Cores:     1,
		Resources: schedule.Resources{SharedBlocks: 4, CoreBlocks: 2},
		Body: func(b schedule.Backend) {
			b.StageShared(l)
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(l)
				ops.Apply(schedule.FactorTile, l)
				// no core Unstage: inclusion is violated below
			})
			b.UnstageShared(l)
		},
	}
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	tr, err := matrix.NewTriple(2, 2, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(team, tr, nil, ModeSharedPipelined, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "still holds") {
		t.Fatalf("inclusion violation not rejected: %v", err)
	}
}

// Demand-driven programs have no staging discipline: the pipelined
// executor must fall back to the plain (strided-compute) path, exactly
// as ModeShared does, and still produce the right product.
func TestPipelinedDemandDrivenFallsThrough(t *testing.T) {
	mach := testMachine(4)
	tr, err := matrix.NewTriple(5, 4, 3, mach.Q, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := Multiply("Outer Product", tr, mach, ModeSharedPipelined, DefaultTuning, nil); err != nil {
		t.Fatal(err)
	}
	diff, err := Verify(tr)
	if err != nil {
		t.Fatal(err)
	}
	if diff > 1e-10 {
		t.Fatalf("demand-driven pipelined result deviates by %g", diff)
	}
}

// A worker error mid-region must tear the pipeline down cleanly: the
// stager is unblocked, the error surfaces, and nothing deadlocks. The
// program stages a line at the shared level but computes on one it
// never core-staged, which faults inside the region replay.
func TestPipelinedWorkerErrorTearsDown(t *testing.T) {
	good, bad := schedule.LineA(0, 0), schedule.LineB(0, 0)
	prog := &schedule.Program{
		Algorithm: "worker-fault",
		Cores:     1,
		Resources: schedule.Resources{SharedBlocks: 4, CoreBlocks: 2},
		Body: func(b schedule.Backend) {
			b.StageShared(good)
			b.StageShared(bad)
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(good)
				ops.Apply(schedule.MulSub, good, good, bad) // bad never core-staged
				ops.Unstage(good)
			})
			b.UnstageShared(bad)
			b.UnstageShared(good)
		},
	}
	team, err := NewTeam(1)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	tr, err := matrix.NewTriple(2, 2, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ex, err := NewExecutor(team, tr, nil, ModeSharedPipelined, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = ex.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "non-resident") {
		t.Fatalf("worker fault not surfaced: %v", err)
	}
}

// StageWait/ComputeTime must be populated for shared-level runs: the
// serial mode's stage wait is the between-region staging wall-time, the
// pipelined mode's is the time blocked on the stager. Wall-clock
// assertions beyond "measured at all" would flake; the strict
// comparison lives in the benchmark records.
func TestStageWaitAccounting(t *testing.T) {
	mach := testMachine(4)
	for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
		tr, err := matrix.NewTriple(6, 6, 6, mach.Q, 5)
		if err != nil {
			t.Fatal(err)
		}
		a, err := algo.ByName("Shared Opt.")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Schedule(mach, algo.Workload{M: 6, N: 6, Z: 6})
		if err != nil {
			t.Fatal(err)
		}
		team, err := NewTeam(mach.P)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
		if err != nil {
			team.Close()
			t.Fatal(err)
		}
		if err := ex.Run(prog); err != nil {
			team.Close()
			t.Fatal(err)
		}
		if ex.ComputeTime() <= 0 {
			t.Fatalf("%v: compute time not measured", mode)
		}
		if ex.StageWait() < 0 {
			t.Fatalf("%v: negative stage wait", mode)
		}
		if mode == ModeShared && ex.StageWait() <= 0 {
			t.Fatalf("%v: serial shared staging took no measurable time", mode)
		}
		team.Close()
	}
}
