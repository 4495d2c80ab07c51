package schedule_test

// White-box coverage for the optimizer lives at the ends of the
// pipeline (verify grid, sim/exec equivalence, LU); these tests pin the
// pass's own contract on small hand-built streams: which pairs are
// elidable, which blockers and capacity profiles refuse them, that the
// ledger balances per level and per chip, and that programs the pass
// cannot analyse come back untouched — the identical pointer.

import (
	"strings"
	"testing"

	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

// optProg builds a one-algorithm test program.
func optProg(cores int, r schedule.Resources, home func(schedule.Line) int, body func(schedule.Backend)) *schedule.Program {
	return &schedule.Program{Algorithm: "opt-test", Cores: cores, Resources: r, Home: home, Body: body}
}

// mustOptimize runs Optimize and fails the test on an internal error.
func mustOptimize(t *testing.T, p *schedule.Program, opts schedule.OptimizeOptions) (*schedule.Program, schedule.OptimizeReport) {
	t.Helper()
	q, rep, err := schedule.Optimize(p, opts)
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	return q, rep
}

// verifyClean asserts the optimized program passes the static verifier
// with zero findings — the tentpole's "provably safe" contract.
func verifyClean(t *testing.T, p *schedule.Program) {
	t.Helper()
	if fs := verify.Program(p, p.Resources); len(fs) > 0 {
		t.Fatalf("optimized program has %d findings, first: %+v", len(fs), fs[0])
	}
}

func TestOptimizeElidesSharedRestage(t *testing.T) {
	a00, b00 := schedule.LineA(0, 0), schedule.LineB(0, 0)
	p := optProg(1, schedule.Resources{SharedBlocks: 2, CoreBlocks: 1}, nil, func(b schedule.Backend) {
		b.StageShared(a00)
		b.Parallel(func(core int, ops schedule.CoreSink) {
			ops.Stage(a00)
			ops.Unstage(a00)
		})
		b.UnstageShared(a00)
		b.StageShared(b00) // gap traffic on another line
		b.UnstageShared(b00)
		b.StageShared(a00)
		b.Parallel(func(core int, ops schedule.CoreSink) {
			ops.Stage(a00)
			ops.Unstage(a00)
		})
		b.UnstageShared(a00)
	})
	q, rep := mustOptimize(t, p, schedule.OptimizeOptions{})
	if !rep.Changed || q == p {
		t.Fatalf("expected a rewritten program, got Changed=%v SkipReason=%q", rep.Changed, rep.SkipReason)
	}
	if rep.Shared.BaselineStages != 3 || rep.Shared.ElidedStages != 1 || rep.Shared.KeptStages != 2 {
		t.Fatalf("shared ledger = %+v, want baseline 3, elided 1, kept 2", rep.Shared)
	}
	ws, err := schedule.Measure(q)
	if err != nil {
		t.Fatal(err)
	}
	if ws.SharedStages != 2 || ws.SharedUnstages != 2 {
		t.Fatalf("optimized program stages %d/unstages %d at the shared level, want 2/2", ws.SharedStages, ws.SharedUnstages)
	}
	verifyClean(t, q)
}

func TestOptimizeRespectsSharedCapacity(t *testing.T) {
	a00, b00 := schedule.LineA(0, 0), schedule.LineB(0, 0)
	// Identical stream, but CS=1: keeping a00 resident across the gap
	// would collide with b00's slot, so nothing may be elided.
	p := optProg(1, schedule.Resources{SharedBlocks: 1, CoreBlocks: 1}, nil, func(b schedule.Backend) {
		b.StageShared(a00)
		b.Parallel(func(core int, ops schedule.CoreSink) {
			ops.Stage(a00)
			ops.Unstage(a00)
		})
		b.UnstageShared(a00)
		b.StageShared(b00)
		b.UnstageShared(b00)
		b.StageShared(a00)
		b.Parallel(func(core int, ops schedule.CoreSink) {
			ops.Stage(a00)
			ops.Unstage(a00)
		})
		b.UnstageShared(a00)
	})
	q, rep := mustOptimize(t, p, schedule.OptimizeOptions{})
	if rep.Changed || q != p {
		t.Fatalf("expected the identical program back, got Changed=%v elided=%d", rep.Changed, rep.TotalElided())
	}
	if rep.SkipReason != "" {
		t.Fatalf("capacity-blocked elision must not skip analysis, got %q", rep.SkipReason)
	}
	if rep.Shared.BaselineStages != 3 || rep.Shared.KeptStages != 3 {
		t.Fatalf("shared ledger = %+v, want everything kept", rep.Shared)
	}
}

func TestOptimizeBlockedByGapReference(t *testing.T) {
	a00 := schedule.LineA(0, 0)
	// The gap's region raw-reads a00: the unstage/restage pair is live
	// and must survive.
	p := optProg(1, schedule.Resources{SharedBlocks: 4, CoreBlocks: 1}, nil, func(b schedule.Backend) {
		b.StageShared(a00)
		b.UnstageShared(a00)
		b.Parallel(func(core int, ops schedule.CoreSink) {
			ops.Read(a00)
		})
		b.StageShared(a00)
		b.UnstageShared(a00)
	})
	q, rep := mustOptimize(t, p, schedule.OptimizeOptions{})
	if rep.Changed || q != p || rep.Shared.ElidedStages != 0 {
		t.Fatalf("gap reference must block the elision, got Changed=%v %+v", rep.Changed, rep.Shared)
	}
}

func TestOptimizeElidesCleanCoreRefills(t *testing.T) {
	c00, a00, b00 := schedule.LineC(0, 0), schedule.LineA(0, 0), schedule.LineB(0, 0)
	region := func(b schedule.Backend) {
		b.Parallel(func(core int, ops schedule.CoreSink) {
			ops.Stage(c00)
			ops.Stage(a00)
			ops.Stage(b00)
			ops.Compute(0, 0, 0)
			ops.Unstage(a00)
			ops.Unstage(b00)
			ops.Unstage(c00)
		})
	}
	p := optProg(1, schedule.Resources{SharedBlocks: 3, CoreBlocks: 3}, nil, func(b schedule.Backend) {
		b.StageShared(c00)
		b.StageShared(a00)
		b.StageShared(b00)
		region(b)
		region(b)
		b.UnstageShared(c00)
		b.UnstageShared(a00)
		b.UnstageShared(b00)
	})
	q, rep := mustOptimize(t, p, schedule.OptimizeOptions{})
	if !rep.Changed {
		t.Fatalf("expected core refills elided, got %+v (skip %q)", rep.Core, rep.SkipReason)
	}
	// All three refills of the second region fold into the first hold:
	// 6 baseline core stages become 3, and the dirty C writeback sinks
	// from two merges to one.
	if rep.Core.BaselineStages != 6 || rep.Core.ElidedStages != 3 || rep.Core.KeptStages != 3 {
		t.Fatalf("core stage ledger = %+v, want 6/3/3", rep.Core)
	}
	if rep.Core.BaselineWriteBacks != 2 || rep.Core.KeptWriteBacks != 1 || rep.Core.ElidedWriteBacks != 1 {
		t.Fatalf("core writeback ledger = %+v, want 2→1", rep.Core)
	}
	ws, err := schedule.Measure(q)
	if err != nil {
		t.Fatal(err)
	}
	if ws.Stages != 3 || ws.Unstages != 3 || ws.Computes != 2 {
		t.Fatalf("optimized stream measures %d stages/%d unstages/%d computes, want 3/3/2", ws.Stages, ws.Unstages, ws.Computes)
	}
	if ws.CorePeak > 3 {
		t.Fatalf("optimized core peak %d exceeds CD=3", ws.CorePeak)
	}
	verifyClean(t, q)
}

func TestOptimizeDirtyHoldBlockedByOtherCoreUse(t *testing.T) {
	c00 := schedule.LineC(0, 0)
	body := func(withReader bool) func(schedule.Backend) {
		return func(b schedule.Backend) {
			b.Parallel(func(core int, ops schedule.CoreSink) {
				if core == 0 {
					ops.Stage(c00)
					ops.Apply(schedule.FactorTile, c00)
					ops.Unstage(c00) // dirty
				}
			})
			if withReader {
				b.Parallel(func(core int, ops schedule.CoreSink) {
					if core == 1 {
						ops.Stage(c00)
						ops.Unstage(c00)
					}
				})
			}
			b.Parallel(func(core int, ops schedule.CoreSink) {
				if core == 0 {
					ops.Stage(c00)
					ops.Unstage(c00)
				}
			})
		}
	}
	r := schedule.Resources{CoreBlocks: 2}
	q, rep := mustOptimize(t, optProg(2, r, nil, body(true)), schedule.OptimizeOptions{})
	if rep.Changed || rep.Core.ElidedStages != 0 {
		t.Fatalf("another core reading a dirty-held line must block elision, got %+v", rep.Core)
	}
	_ = q
	q, rep = mustOptimize(t, optProg(2, r, nil, body(false)), schedule.OptimizeOptions{})
	if !rep.Changed || rep.Core.ElidedStages != 1 {
		t.Fatalf("without the reader the refill must elide, got %+v (skip %q)", rep.Core, rep.SkipReason)
	}
	verifyClean(t, q)
}

func TestOptimizePerChipLedger(t *testing.T) {
	a00, a10 := schedule.LineA(0, 0), schedule.LineA(1, 0)
	home := func(l schedule.Line) int { return l.Row % 2 }
	r := schedule.Resources{SharedBlocks: 2, CoreBlocks: 2, Chips: 2}
	round := func(b schedule.Backend) {
		b.StageShared(a00)
		b.StageShared(a10)
		b.Parallel(func(core int, ops schedule.CoreSink) {
			l := a00
			if core == 1 {
				l = a10
			}
			ops.Stage(l)
			ops.Unstage(l)
		})
		b.UnstageShared(a00)
		b.UnstageShared(a10)
	}
	p := optProg(2, r, home, func(b schedule.Backend) {
		round(b)
		round(b)
	})
	q, rep := mustOptimize(t, p, schedule.OptimizeOptions{})
	if !rep.Changed {
		t.Fatalf("expected elisions on both chips, skip %q", rep.SkipReason)
	}
	if len(rep.SharedPerChip) != 2 || len(rep.CorePerChip) != 2 {
		t.Fatalf("per-chip ledgers sized %d/%d, want 2/2", len(rep.SharedPerChip), len(rep.CorePerChip))
	}
	for ch := 0; ch < 2; ch++ {
		sc, cc := rep.SharedPerChip[ch], rep.CorePerChip[ch]
		if sc.ElidedStages != 1 || sc.BaselineStages != 2 || sc.KeptStages != 1 {
			t.Fatalf("chip %d shared ledger = %+v, want 2/1/1", ch, sc)
		}
		if cc.ElidedStages != 1 || cc.BaselineStages != 2 || cc.KeptStages != 1 {
			t.Fatalf("chip %d core ledger = %+v, want 2/1/1", ch, cc)
		}
		if sc.BaselineStages != sc.ElidedStages+sc.KeptStages || cc.BaselineStages != cc.ElidedStages+cc.KeptStages {
			t.Fatalf("chip %d ledger does not balance: %+v / %+v", ch, sc, cc)
		}
	}
	verifyClean(t, q)
}

// The shared pass drops the driver pair between two regions, which
// frees the gap the core pass needs to keep the refilled tile: without
// the shared elision the surviving driver unstage would block the core
// one.
func TestOptimizeSharedElisionUnlocksCoreRefill(t *testing.T) {
	a00 := schedule.LineA(0, 0)
	body := func(b schedule.Backend) {
		for range 2 {
			b.StageShared(a00)
			b.Parallel(func(core int, ops schedule.CoreSink) {
				ops.Stage(a00)
				ops.Unstage(a00)
			})
			b.UnstageShared(a00)
		}
	}
	r := schedule.Resources{SharedBlocks: 1, CoreBlocks: 1}
	q, rep := mustOptimize(t, optProg(1, r, nil, body), schedule.OptimizeOptions{})
	if rep.Shared.ElidedStages != 1 || rep.Core.ElidedStages != 1 {
		t.Fatalf("combined ledger = %+v / %+v, want 1 elision each", rep.Shared, rep.Core)
	}
	verifyClean(t, q)
}

func TestOptimizeSkipsUnanalysablePrograms(t *testing.T) {
	a00 := schedule.LineA(0, 0)
	r := schedule.Resources{SharedBlocks: 2, CoreBlocks: 2}
	cases := []struct {
		name string
		prog *schedule.Program
		want string
	}{
		{"demand-driven", &schedule.Program{Algorithm: "dd", Cores: 1, DemandDriven: true,
			Body: func(b schedule.Backend) {}}, "demand-driven"},
		{"no body", &schedule.Program{Algorithm: "nb", Cores: 1}, "no body"},
		{"no cores", optProg(0, r, nil, func(b schedule.Backend) {}), "no cores"},
		{"driver op in region", optProg(1, r, nil, func(b schedule.Backend) {
			b.Parallel(func(core int, ops schedule.CoreSink) { b.StageShared(a00) })
		}), "driver op inside"},
		{"shared leak", optProg(1, r, nil, func(b schedule.Backend) {
			b.StageShared(a00)
		}), "leaked"},
		{"double stage", optProg(1, r, nil, func(b schedule.Backend) {
			b.StageShared(a00)
			b.StageShared(a00)
		}), "double stage"},
		{"unknown kernel", optProg(1, r, nil, func(b schedule.Backend) {
			b.Parallel(func(core int, ops schedule.CoreSink) {
				ops.Apply(schedule.Kernel(200), a00)
			})
		}), "unknown kernel"},
		{"capacity overflow", optProg(1, schedule.Resources{SharedBlocks: 1, CoreBlocks: 1}, nil, func(b schedule.Backend) {
			b.StageShared(a00)
			b.StageShared(schedule.LineB(0, 0))
			b.UnstageShared(a00)
			b.UnstageShared(schedule.LineB(0, 0))
		}), "exceeds its declared capacities"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, rep, err := schedule.Optimize(tc.prog, schedule.OptimizeOptions{})
			if err != nil {
				t.Fatalf("Optimize must not error on unanalysable input: %v", err)
			}
			if q != tc.prog {
				t.Fatal("skipped program must come back as the identical pointer")
			}
			if rep.Changed || rep.TotalElided() != 0 {
				t.Fatalf("skip must not elide, got %+v", rep)
			}
			if !strings.Contains(rep.SkipReason, tc.want) {
				t.Fatalf("SkipReason = %q, want it to mention %q", rep.SkipReason, tc.want)
			}
		})
	}
	if _, _, err := schedule.Optimize(nil, schedule.OptimizeOptions{}); err == nil {
		t.Fatal("Optimize(nil) must error")
	}
}
