package verify_test

import (
	"testing"

	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

var (
	lX = schedule.LineA(1, 1)
	lY = schedule.LineB(1, 1)
)

// planLines is the line table of the hand-built plans, which name lA,
// lY, lX and lC by the IDs idA, idY, idX and idC.
var planLines = []schedule.Line{lA, lY, lX, lC}

const (
	idA schedule.LineID = iota
	idY
	idX
	idC
)

// twoRegions emits: gap0 [StageShared lA], region 0 (core 0 touches
// touch0), gap1 [StageShared lY], region 1 (core 0 touches lY), tail
// [UnstageShared lY, UnstageShared lA]. touch0 parameterises region 0's
// touch set so tests can make a hoist of lY safe or unsafe.
func twoRegions(touch0 schedule.Line) *schedule.Program {
	return prog(1, 1, 8, 3, func(b schedule.Backend) {
		b.StageShared(lA) // op 0
		b.Parallel(func(c int, ops schedule.CoreSink) {
			ops.Stage(touch0)                      // op 1
			ops.Apply(schedule.FactorTile, touch0) // op 2 (hide quota for the planner)
			ops.Unstage(touch0)                    // op 3
		})
		b.StageShared(lY) // op 4
		b.Parallel(func(c int, ops schedule.CoreSink) {
			ops.Stage(lY)                      // op 5
			ops.Apply(schedule.FactorTile, lY) // op 6
			ops.Unstage(lY)                    // op 7
		})
		b.UnstageShared(lY) // op 8
		b.UnstageShared(lA) // op 9
	})
}

// hoistPlan phases twoRegions with gap1's stage of lY prefetched during
// region 0.
func hoistPlan() *schedule.PipelinePlan {
	return &schedule.PipelinePlan{
		Depth: 1,
		Lines: planLines,
		Regions: []schedule.PipelineRegion{
			{Barrier: []schedule.SharedOp{{Line: idA}}, Prefetch: []schedule.LineID{idY}},
			{},
		},
		Tail: []schedule.SharedOp{{Line: idY, Unstage: true}, {Line: idA, Unstage: true}},
	}
}

func TestPlanCleanHoist(t *testing.T) {
	p := twoRegions(lX) // region 0 touches lX, not lY: the hoist is safe
	if fs := verify.Plan(p, hoistPlan(), 8); len(fs) != 0 {
		t.Fatalf("safe hoist reported findings: %v", fs)
	}
}

func TestHoistUnsafe(t *testing.T) {
	p := twoRegions(lY) // region 0 touches lY: the hoist overlaps it
	fs := verify.Plan(p, hoistPlan(), 8)
	f := mustFind(t, fs, verify.HoistUnsafe)
	if f.Op != 4 || f.Region != 0 || f.Line != lY {
		t.Errorf("want HoistUnsafe at op 4 (the hoisted stage) over region 0, got %v", f)
	}
	wantOnly(t, fs, verify.HoistUnsafe)
}

func TestHoistUnsafeCrossedUnstage(t *testing.T) {
	// gap1 unstages lY before restaging it; a plan hoisting the restage
	// to region 0 crosses that unstage.
	p := prog(1, 1, 8, 3, func(b schedule.Backend) {
		b.StageShared(lY) // op 0
		b.Parallel(func(c int, ops schedule.CoreSink) {
			ops.Stage(lX)   // op 1
			ops.Unstage(lX) // op 2
		})
		b.UnstageShared(lY) // op 3
		b.StageShared(lY)   // op 4
		b.Parallel(func(c int, ops schedule.CoreSink) {
			ops.Stage(lY)   // op 5
			ops.Unstage(lY) // op 6
		})
		b.UnstageShared(lY) // op 7
	})
	plan := &schedule.PipelinePlan{
		Depth: 1,
		Lines: planLines,
		Regions: []schedule.PipelineRegion{
			{Barrier: []schedule.SharedOp{{Line: idY}}, Prefetch: []schedule.LineID{idY}},
			{Barrier: []schedule.SharedOp{{Line: idY, Unstage: true}}},
		},
		Tail: []schedule.SharedOp{{Line: idY, Unstage: true}},
	}
	fs := verify.Plan(p, plan, 8)
	f := mustFind(t, fs, verify.HoistUnsafe)
	if f.Op != 4 {
		t.Errorf("want HoistUnsafe at op 4 (the restage crossing its own unstage), got %v", f)
	}
}

func TestRetireUnsafe(t *testing.T) {
	// gap1's write-back of lX retires under region 1, which refills lX.
	p := prog(1, 1, 8, 3, func(b schedule.Backend) {
		b.StageShared(lX) // op 0
		b.Parallel(func(c int, ops schedule.CoreSink) {
			ops.Stage(lA)   // op 1
			ops.Unstage(lA) // op 2
		})
		b.UnstageShared(lX) // op 3
		b.Parallel(func(c int, ops schedule.CoreSink) {
			ops.Stage(lX)   // op 4
			ops.Unstage(lX) // op 5
		})
	})
	plan := &schedule.PipelinePlan{
		Depth: 1,
		Lines: planLines,
		Regions: []schedule.PipelineRegion{
			{Barrier: []schedule.SharedOp{{Line: idX}}},
			{Retire: []schedule.LineID{idX}},
		},
	}
	fs := verify.Plan(p, plan, 8)
	f := mustFind(t, fs, verify.RetireUnsafe)
	if f.Op != 3 || f.Region != 1 || f.Line != lX {
		t.Errorf("want RetireUnsafe at op 3 under region 1, got %v", f)
	}
	wantOnly(t, fs, verify.RetireUnsafe)
}

func TestPlanFootprint(t *testing.T) {
	// Hoisting lY into region 0 keeps lA and lY simultaneously resident;
	// with one shared slot the overlapped footprint cannot fit.
	p := twoRegions(lX)
	fs := verify.Plan(p, hoistPlan(), 1)
	f := mustFind(t, fs, verify.PlanFootprint)
	if f.Region != 0 || f.Chip != 0 {
		t.Errorf("want PlanFootprint during region 0 on chip 0, got %v", f)
	}
	wantOnly(t, fs, verify.PlanFootprint)
}

func TestPlanMismatch(t *testing.T) {
	t.Run("region count", func(t *testing.T) {
		p := twoRegions(lX)
		fs := verify.Plan(p, &schedule.PipelinePlan{Depth: 1}, 8)
		mustFind(t, fs, verify.PlanMismatch)
	})
	t.Run("orphan prefetch", func(t *testing.T) {
		p := twoRegions(lX)
		plan := hoistPlan()
		// The orphan prefetch replaces the hoist, so lY's stage stays a
		// barrier op and conservation still holds.
		plan.Regions[0].Prefetch = []schedule.LineID{idC} // never staged
		plan.Regions[1].Barrier = []schedule.SharedOp{{Line: idY}}
		fs := verify.Plan(p, plan, 8)
		f := mustFind(t, fs, verify.PlanMismatch)
		if f.Region != 0 || f.Line != lC {
			t.Errorf("want orphan-prefetch mismatch at region 0 on %v, got %v", lC, f)
		}
	})
	t.Run("dropped op", func(t *testing.T) {
		p := twoRegions(lX)
		plan := hoistPlan()
		plan.Tail = plan.Tail[:1] // loses lA's unstage
		fs := verify.Plan(p, plan, 8)
		mustFind(t, fs, verify.PlanMismatch)
	})
	t.Run("ID outside the line table", func(t *testing.T) {
		p := twoRegions(lX)
		plan := hoistPlan()
		plan.Regions[0].Prefetch = []schedule.LineID{schedule.LineID(len(plan.Lines))}
		fs := verify.Plan(p, plan, 8)
		if f := mustFind(t, fs, verify.PlanMismatch); f.Region != 0 {
			t.Errorf("want the unresolved prefetch reported at region 0, got %v", f)
		}
		// Without a line table no ID resolves: every list entry is a
		// mismatch, and none of them panics.
		plan.Lines = nil
		fs = verify.Plan(p, plan, 8)
		if len(fs) != 4 {
			t.Errorf("want 4 unresolved IDs (prefetch, barrier, two tail ops), got %v", fs)
		}
		wantOnly(t, fs, verify.PlanMismatch)
	})
}

// TestPlannerOutputVerifiesClean cross-validates the two independent
// implementations: the plan the real planner builds for the corpus's
// clean program must pass the checker.
func TestPlannerOutputVerifiesClean(t *testing.T) {
	p := twoRegions(lX)
	plan, err := schedule.PlanPipelineDepth(p, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fs := verify.Plan(p, plan, 8); len(fs) != 0 {
		t.Errorf("planner output reported findings: %v", fs)
	}
}
