package verify_test

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

// The acceptance grid: every registered algorithm (the paper's six plus
// the cache-oblivious comparator) and the LU emitter must verify clean
// on single- and dual-chip machines across square and ragged shapes,
// and every pipelined plan the planner builds for them must pass the
// plan checker. This is the static mirror of the dynamic equivalence
// suites — cmd/schedlint lints the same grid from the command line.

func gridMachines(t *testing.T) []machine.Machine {
	t.Helper()
	ms := []machine.Machine{
		{P: 1, CS: 64, CD: 8, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 2, CS: 64, CD: 8, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 2, CS: 64, CD: 8, Chips: 2, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 4, CS: 140, CD: 12, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 4, CS: 140, CD: 12, Chips: 2, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
	}
	for _, m := range ms {
		if err := m.Validate(); err != nil {
			t.Fatalf("grid machine %+v invalid: %v", m, err)
		}
	}
	return ms
}

var gridWorkloads = []algo.Workload{
	algo.Square(6),
	{M: 5, N: 3, Z: 7}, // ragged
	{M: 1, N: 1, Z: 1},
	{M: 7, N: 2, Z: 5}, // ragged
}

func TestRegisteredProgramsVerifyClean(t *testing.T) {
	for _, a := range algo.Extended() {
		for _, m := range gridMachines(t) {
			for _, w := range gridWorkloads {
				name := fmt.Sprintf("%s/p%d_chips%d/%dx%dx%d", a.Name(), m.P, m.ChipCount(), w.M, w.N, w.Z)
				t.Run(name, func(t *testing.T) {
					p, err := a.Schedule(m, w)
					if err != nil {
						t.Fatalf("schedule: %v", err)
					}
					if fs := verify.Program(p, p.Resources); len(fs) != 0 {
						for _, f := range fs {
							t.Errorf("finding: %v", f)
						}
					}
				})
			}
		}
	}
}

func TestLUProgramsVerifyClean(t *testing.T) {
	for _, m := range gridMachines(t) {
		for _, nb := range []int{1, 2, 5, 6} {
			name := fmt.Sprintf("p%d_chips%d/nb%d", m.P, m.ChipCount(), nb)
			t.Run(name, func(t *testing.T) {
				p, err := lu.Program(m, nb)
				if err != nil {
					t.Fatalf("lu program: %v", err)
				}
				if fs := verify.Program(p, p.Resources); len(fs) != 0 {
					for _, f := range fs {
						t.Errorf("finding: %v", f)
					}
				}
			})
		}
	}
}

// TestRegisteredPlansVerifyClean cross-validates the pipeline planner
// against the independent plan checker on the full grid: every plan the
// planner accepts must re-verify clean from the outside.
func TestRegisteredPlansVerifyClean(t *testing.T) {
	check := func(t *testing.T, p *schedule.Program, cs int) {
		t.Helper()
		plan, err := schedule.PlanPipelineDepth(p, cs, 1)
		if err != nil {
			t.Fatalf("plan: %v", err)
		}
		for _, f := range verify.Plan(p, plan, cs) {
			t.Errorf("finding: %v", f)
		}
	}
	for _, a := range algo.Extended() {
		for _, m := range gridMachines(t) {
			for _, w := range gridWorkloads {
				p, err := a.Schedule(m, w)
				if err != nil {
					t.Fatalf("%s: schedule: %v", a.Name(), err)
				}
				if p.DemandDriven {
					continue // no staging stream to phase
				}
				name := fmt.Sprintf("%s/p%d_chips%d/%dx%dx%d", a.Name(), m.P, m.ChipCount(), w.M, w.N, w.Z)
				t.Run(name, func(t *testing.T) { check(t, p, m.CS) })
			}
		}
	}
	for _, m := range gridMachines(t) {
		p, err := lu.Program(m, 6)
		if err != nil {
			t.Fatalf("lu program: %v", err)
		}
		t.Run(fmt.Sprintf("LU/p%d_chips%d/nb6", m.P, m.ChipCount()), func(t *testing.T) { check(t, p, m.CS) })
	}
}

// TestOptimizedProgramsVerifyClean extends the acceptance grid through
// the optimizer: every registered program and the LU emitter, rewritten
// by schedule.Optimize, must still verify clean against its declared
// resources, and every pipelined plan built for the optimized stream
// must pass the plan checker. The optimizer is only trusted because of
// this gate — a rewrite the verifier rejects is a bug, not a tuning
// choice.
func TestOptimizedProgramsVerifyClean(t *testing.T) {
	changed := 0
	check := func(t *testing.T, p *schedule.Program, cs int) {
		t.Helper()
		q, rep, err := schedule.Optimize(p, schedule.OptimizeOptions{})
		if err != nil {
			t.Fatalf("optimize: %v", err)
		}
		if rep.SkipReason != "" {
			t.Fatalf("staged program skipped: %s", rep.SkipReason)
		}
		if rep.Changed {
			changed++
		}
		if fs := verify.Program(q, q.Resources); len(fs) != 0 {
			for _, f := range fs {
				t.Errorf("finding: %v", f)
			}
		}
		plan, err := schedule.PlanPipelineDepth(q, cs, 1)
		if err != nil {
			t.Fatalf("plan optimized stream: %v", err)
		}
		for _, f := range verify.Plan(q, plan, cs) {
			t.Errorf("plan finding: %v", f)
		}
	}
	for _, a := range algo.Extended() {
		for _, m := range gridMachines(t) {
			for _, w := range gridWorkloads {
				p, err := a.Schedule(m, w)
				if err != nil {
					t.Fatalf("%s: schedule: %v", a.Name(), err)
				}
				if p.DemandDriven {
					continue // the optimizer skips demand-driven streams
				}
				name := fmt.Sprintf("%s/p%d_chips%d/%dx%dx%d", a.Name(), m.P, m.ChipCount(), w.M, w.N, w.Z)
				t.Run(name, func(t *testing.T) { check(t, p, m.CS) })
			}
		}
	}
	for _, m := range gridMachines(t) {
		for _, nb := range []int{1, 2, 5, 6} {
			p, err := lu.Program(m, nb)
			if err != nil {
				t.Fatalf("lu program: %v", err)
			}
			t.Run(fmt.Sprintf("LU/p%d_chips%d/nb%d", m.P, m.ChipCount(), nb), func(t *testing.T) { check(t, p, m.CS) })
		}
	}
	if changed == 0 {
		t.Fatal("optimizer changed nothing on the acceptance grid")
	}
}

// TestVerifierCapacityMatchesFits pins the dedup satellite from the
// verifier's side: for every registered program, the walker's exact
// accounting and WorkingSet.Fits (both now delegating to
// schedule.CheckCapacity) agree — the verifier reports a capacity
// finding exactly when Fits errors.
func TestVerifierCapacityMatchesFits(t *testing.T) {
	capKind := func(fs []verify.Finding) bool {
		for _, f := range fs {
			if f.Kind == verify.OverCapacity || f.Kind == verify.UndeclaredCapacity {
				return true
			}
		}
		return false
	}
	for _, a := range algo.Extended() {
		for _, m := range gridMachines(t) {
			for _, w := range gridWorkloads {
				p, err := a.Schedule(m, w)
				if err != nil {
					t.Fatalf("%s: schedule: %v", a.Name(), err)
				}
				ws, err := schedule.Measure(p)
				if err != nil {
					t.Fatalf("%s: measure: %v", a.Name(), err)
				}
				// Tighten the declared resources around the measured peaks
				// to force both sides across the boundary.
				for _, res := range []schedule.Resources{
					p.Resources,
					{SharedBlocks: ws.SharedPeak, CoreBlocks: ws.CorePeak, Chips: p.Resources.Chips},
					{SharedBlocks: ws.SharedPeak - 1, CoreBlocks: ws.CorePeak, Chips: p.Resources.Chips},
					{SharedBlocks: ws.SharedPeak, CoreBlocks: ws.CorePeak - 1, Chips: p.Resources.Chips},
				} {
					if res.SharedBlocks < 0 || res.CoreBlocks < 0 {
						continue
					}
					fitsErr := ws.Fits(res)
					got := capKind(verify.Program(p, res))
					if (fitsErr != nil) != got {
						t.Errorf("%s on %+v: Fits err=%v but verifier capacity finding=%v",
							a.Name(), res, fitsErr, got)
					}
				}
			}
		}
	}
}
