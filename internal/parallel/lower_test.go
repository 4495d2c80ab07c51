package parallel

import (
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// TestLowerRejectsMalformedStreams pins where a stream no trace can
// represent fails: once, at lowering, before anything runs. Lower names
// the op; Measure and both planners return its error; Optimize hands
// the program back unchanged with the error as its SkipReason; and the
// executor rejects the program pre-flight in every mode, without
// quarantine and without moving a block.
func TestLowerRejectsMalformedStreams(t *testing.T) {
	a00, b00, c00 := schedule.LineA(0, 0), schedule.LineB(0, 0), schedule.LineC(0, 0)
	// A well-formed one-core product, with region ops replaceable per case.
	program := func(region func(b schedule.Backend, ops schedule.CoreSink)) *schedule.Program {
		return &schedule.Program{
			Algorithm: "malformed",
			Cores:     1,
			Resources: schedule.Resources{SharedBlocks: 3, CoreBlocks: 3},
			Body: func(b schedule.Backend) {
				b.StageShared(a00)
				b.StageShared(b00)
				b.Parallel(func(c int, ops schedule.CoreSink) {
					ops.Stage(a00)
					ops.Stage(b00)
					region(b, ops)
					ops.Unstage(a00)
					ops.Unstage(b00)
					ops.Unstage(c00)
				})
				b.UnstageShared(a00)
				b.UnstageShared(b00)
				b.UnstageShared(c00)
			},
		}
	}
	cases := []struct {
		name   string
		region func(b schedule.Backend, ops schedule.CoreSink)
		want   string
	}{
		{"source count", func(b schedule.Backend, ops schedule.CoreSink) {
			ops.Stage(c00)
			ops.Apply(schedule.MulAdd, c00, a00)
		}, "region 0 core 0 op 3: MulAdd applied to 1 sources, want 2 (destination C[0,0])"},
		{"unknown kernel", func(b schedule.Backend, ops schedule.CoreSink) {
			ops.Apply(schedule.Kernel(99), c00, a00, b00)
		}, "region 0 core 0 op 2: unknown kernel Kernel(99) applied to C[0,0]"},
		{"driver op in region", func(b schedule.Backend, ops schedule.CoreSink) {
			b.StageShared(c00)
			ops.Stage(c00)
			ops.Compute(0, 0, 0)
		}, "region 0 core 0 op 2: driver op inside a parallel region: StageShared(C[0,0])"},
		{"nested region", func(b schedule.Backend, ops schedule.CoreSink) {
			b.Parallel(func(int, schedule.CoreSink) {})
		}, "region 0 core 0 op 2: nested parallel region"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := program(tc.region)
			_, err := prog.Lower()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Lower: %v, want an error containing %q", err, tc.want)
			}
			want := err.Error()
			same := func(what string, err error) {
				t.Helper()
				if err == nil || err.Error() != want {
					t.Fatalf("%s: %v, want the lowering error %q", what, err, want)
				}
			}
			_, err = schedule.Measure(prog)
			same("Measure", err)
			_, err = schedule.PlanSerial(prog, 3)
			same("PlanSerial", err)
			_, err = schedule.PlanPipelineDepth(prog, 3, 1)
			same("PlanPipelineDepth", err)
			q, rep, err := schedule.Optimize(prog, schedule.OptimizeOptions{})
			if err != nil || q != prog || rep.Changed || rep.SkipReason != want {
				t.Fatalf("Optimize: program changed=%v err=%v skip=%q, want it unchanged with skip %q",
					q != prog, err, rep.SkipReason, want)
			}
			for _, mode := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
				team, err := NewTeam(1)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(team.Close)
				tr, err := matrix.NewTriple(1, 1, 1, 4, 3)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := NewExecutor(team, tr, nil, mode, 3, 3)
				if err != nil {
					t.Fatal(err)
				}
				ex.SetTuning(Tuning{Optimize: true})
				same(mode.String()+" Run", ex.Run(prog))
				if err := ex.Err(); err != nil {
					t.Fatalf("%v: pre-flight rejection quarantined the executor: %v", mode, err)
				}
				if got := ex.Traffic(); got != (Traffic{}) {
					t.Fatalf("%v: rejected program moved data: %+v", mode, got)
				}
			}
		})
	}
}

// TestRunCallsBodyOnce pins "lowered once": in every mode, with the
// optimizer on or off, an executor records a program's Body on its
// first Run only — the optimizer, Measure, the planner and the replay
// all read that one trace — and every later Run replays the compiled
// trace without calling the Body at all.
func TestRunCallsBodyOnce(t *testing.T) {
	mach := testMachine(2)
	a, err := algo.ByName("Tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Schedule(mach, algo.Square(8))
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
		for _, optimize := range []bool{false, true} {
			calls := 0
			prog := *src
			prog.Body = func(b schedule.Backend) {
				calls++
				src.Body(b)
			}
			tr, err := matrix.NewTriple(8, 8, 8, mach.Q, 5)
			if err != nil {
				t.Fatal(err)
			}
			team, err := NewTeam(mach.P)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(team.Close)
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				t.Fatal(err)
			}
			ex.SetTuning(Tuning{Optimize: optimize})
			for run, want := range []int{1, 1} {
				if err := ex.Run(&prog); err != nil {
					t.Fatalf("%v optimize=%v run %d: %v", mode, optimize, run+1, err)
				}
				if calls != want {
					t.Fatalf("%v optimize=%v: after run %d the Body was called %d times, want %d",
						mode, optimize, run+1, calls, want)
				}
			}
		}
	}
}

// TestRebindReplaysWithoutCompiling: in every mode, an executor rebound
// to a second triple of the same shape replays its compiled program
// over the new operands without calling the Body again, and leaves the
// first triple alone. nil unbinds, and a Run with nothing bound is a
// pre-flight rejection. A binding of another tile size, and any
// binding while the executor is quarantined, are refused.
func TestRebindReplaysWithoutCompiling(t *testing.T) {
	mach := testMachine(2)
	a, err := algo.ByName("Tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	src, err := a.Schedule(mach, algo.Square(6))
	if err != nil {
		t.Fatal(err)
	}
	triple := func(q int, seed uint64) (*matrix.Triple, *matrix.Operands) {
		tr, err := matrix.NewTriple(6, 6, 6, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		ops, err := tr.Operands()
		if err != nil {
			t.Fatal(err)
		}
		return tr, ops
	}
	for _, mode := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
		calls := 0
		prog := *src
		prog.Body = func(b schedule.Backend) {
			calls++
			src.Body(b)
		}
		team, err := NewTeam(mach.P)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(team.Close)
		tr1, _ := triple(mach.Q, 3)
		ex, err := NewExecutor(team, tr1, nil, mode, mach.CD, mach.CS)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetTuning(Tuning{Optimize: true})
		if err := ex.Run(&prog); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		c1 := tr1.C.Dense().Clone()
		tr2, ops2 := triple(mach.Q, 4)
		if err := ex.Rebind(ops2); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if err := ex.Run(&prog); err != nil {
			t.Fatalf("%v: rebound run: %v", mode, err)
		}
		if calls != 1 {
			t.Fatalf("%v: the Body was called %d times over two runs, want 1", mode, calls)
		}
		if diff, err := Verify(tr2); err != nil || diff > 1e-9 {
			t.Fatalf("%v: rebound run's product deviates by %g (%v)", mode, diff, err)
		}
		if !tr1.C.Dense().Equal(c1) {
			t.Fatalf("%v: the rebound run wrote to the first binding", mode)
		}

		if err := ex.Rebind(nil); err != nil {
			t.Fatalf("%v: unbind: %v", mode, err)
		}
		if err := ex.Run(&prog); err == nil || !strings.Contains(err.Error(), "no operands bound") {
			t.Fatalf("%v: Run with nothing bound = %v, want a pre-flight rejection", mode, err)
		}
		if _, ops := triple(mach.Q/2, 4); ex.Rebind(ops) == nil {
			t.Fatalf("%v: a binding of another tile size must be refused", mode)
		}

		if err := ex.Rebind(ops2); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
			Core: -1, OpIndex: -1, Ops: faultinject.ApplyOnly,
			Action: faultinject.Action{Kind: faultinject.ActPanic},
		}}})
		if err := ex.Run(&prog); err == nil {
			t.Fatalf("%v: injected panic did not fail the run", mode)
		}
		if err := ex.Rebind(ops2); err == nil || !strings.Contains(err.Error(), "quarantined") {
			t.Fatalf("%v: Rebind of a quarantined executor = %v, want a refusal", mode, err)
		}
		ex.Reset()
		if err := ex.Rebind(ops2); err != nil {
			t.Fatalf("%v: Rebind after Reset: %v", mode, err)
		}
	}
}
