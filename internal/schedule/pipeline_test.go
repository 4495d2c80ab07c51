package schedule

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// pipeProg builds a two-region program: region 0 computes on lines
// staged up front, a gap unstages them and stages region 1's lines,
// region 1 computes, and a tail gap unstages everything. With spare
// capacity the gap's stages prefetch under the previous region and its
// unstages retire under the next one; with a tight capacity everything
// must stay on the barrier, reproducing the serial order.
func pipeProg(cores int) *Program {
	stage := func(b Backend, ls ...Line) {
		for _, l := range ls {
			b.StageShared(l)
		}
	}
	unstage := func(b Backend, ls ...Line) {
		for _, l := range ls {
			b.UnstageShared(l)
		}
	}
	region := func(b Backend, ls ...Line) {
		b.Parallel(func(c int, ops CoreSink) {
			if c != 0 {
				return
			}
			for _, l := range ls {
				ops.Stage(l)
			}
			ops.Apply(FactorTile, ls[0])
			for i := len(ls) - 1; i >= 0; i-- {
				ops.Unstage(ls[i])
			}
		})
	}
	r0 := []Line{LineA(0, 0), LineA(0, 1)}
	r1 := []Line{LineA(1, 0), LineA(1, 1)}
	return &Program{
		Algorithm: "pipe-toy",
		Cores:     cores,
		Resources: Resources{SharedBlocks: 4, CoreBlocks: 2},
		Body: func(b Backend) {
			stage(b, r0...)
			region(b, r0...)
			unstage(b, r0...)
			stage(b, r1...)
			region(b, r1...)
			unstage(b, r1...)
		},
	}
}

func TestPlanPipelineOverlapsWithSpareCapacity(t *testing.T) {
	plan, err := PlanPipelineDepth(pipeProg(1), 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != 2 {
		t.Fatalf("planned %d regions, want 2", len(plan.Regions))
	}
	// Region 0's own gap runs up front (all barrier), but the middle
	// gap's two stages prefetch under region 0's compute: 2 resident +
	// 2 prefetched = 4 ≤ CS.
	r0 := plan.Regions[0]
	if len(r0.Prefetch) != 2 || len(r0.Barrier) != 2 {
		t.Fatalf("region 0 phases: prefetch=%v barrier=%v", r0.Prefetch, r0.Barrier)
	}
	// The middle gap fully overlaps: nothing left on region 1's barrier,
	// and region 0's two unstages retire under region 1.
	r1 := plan.Regions[1]
	if len(r1.Prefetch) != 0 || len(r1.Retire) != 2 || len(r1.Barrier) != 0 {
		t.Fatalf("region 1 phases: prefetch=%v barrier=%v retire=%v", r1.Prefetch, r1.Barrier, r1.Retire)
	}
	if len(plan.Tail) != 2 {
		t.Fatalf("tail has %d ops, want 2", len(plan.Tail))
	}
	if plan.Peak != 4 || plan.SerialPeak != 2 {
		t.Fatalf("peak %d (serial %d), want 4 (2)", plan.Peak, plan.SerialPeak)
	}
	if plan.Hoisted != 2 || plan.Retired != 2 {
		t.Fatalf("hoisted/retired = %d/%d, want 2/2", plan.Hoisted, plan.Retired)
	}
	if plan.Depth != 1 {
		t.Fatalf("PlanPipelineDepth must plan at depth 1, got %d", plan.Depth)
	}
	if got := plan.Overlapped(); got <= 0.3 {
		t.Fatalf("overlap fraction %g unexpectedly low", got)
	}
}

// With CS exactly the serial working set there is no spare slot: the
// plan must degrade to the serial order (everything on the barrier
// except the trailing unstages, which still retire — they need no spare
// capacity, only the region hand-off).
func TestPlanPipelineDegradesWithoutSpareCapacity(t *testing.T) {
	plan, err := PlanPipelineDepth(pipeProg(1), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions[0].Prefetch) != 0 {
		t.Fatalf("tight capacity must not prefetch, got %v", plan.Regions[0].Prefetch)
	}
	// Gap order is unstage-unstage-stage-stage: the last stage pins the
	// whole gap onto the barrier.
	r1 := plan.Regions[1]
	if len(r1.Barrier) != 4 || len(r1.Retire) != 0 {
		t.Fatalf("region 1 phases under tight CS: barrier=%v retire=%v", r1.Barrier, r1.Retire)
	}
	if plan.Peak > 2 {
		t.Fatalf("pipelined peak %d exceeds the serial footprint", plan.Peak)
	}
}

// chainProg builds a four-region chain: regions 0–2 each compute on one
// small line, then the gap before region 3 stages `wide` lines at once
// (region 3 computes on them, a tail unstages everything). With one
// Apply per early region, region 2's hide quota saturates at
// pipelineHidePerApply, and the rest of the wide gap stays on the
// barrier.
func chainProg(wide int) *Program {
	w := []Line{LineA(9, 0), LineA(9, 1), LineA(9, 2)}
	var ls []Line
	for i := 0; i < wide; i++ {
		ls = append(ls, LineB(0, i))
	}
	region := func(b Backend, lines ...Line) {
		b.Parallel(func(c int, ops CoreSink) {
			if c != 0 {
				return
			}
			for _, l := range lines {
				ops.Stage(l)
			}
			ops.Apply(FactorTile, lines[0])
			for i := len(lines) - 1; i >= 0; i-- {
				ops.Unstage(lines[i])
			}
		})
	}
	return &Program{
		Algorithm: "chain-toy",
		Cores:     1,
		Resources: Resources{SharedBlocks: 30, CoreBlocks: wide},
		Body: func(b Backend) {
			b.StageShared(w[0])
			region(b, w[0])
			b.UnstageShared(w[0])
			b.StageShared(w[1])
			region(b, w[1])
			b.UnstageShared(w[1])
			b.StageShared(w[2])
			region(b, w[2])
			b.UnstageShared(w[2])
			for _, l := range ls {
				b.StageShared(l)
			}
			region(b, ls...)
			for _, l := range ls {
				b.UnstageShared(l)
			}
		},
	}
}

// TestPlanPipelineDepthTable plans the chain program at depth 1: each
// early region hides at most pipelineHidePerApply stages (one Apply
// each), so the 20-stage gap saturates region 2's quota. The plan's
// footprint stays within capacity and no staging operation is lost.
func TestPlanPipelineDepthTable(t *testing.T) {
	const wide = 20
	const cap = 30
	plan, err := PlanPipelineDepth(chainProg(wide), cap, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Depth != 1 {
		t.Fatalf("plan records depth %d", plan.Depth)
	}
	if plan.Hoisted != 10 {
		t.Fatalf("hoisted %d, want 10", plan.Hoisted)
	}
	wantSlots := []int{1, 1, 8, 0} // Prefetch list length per region
	if len(plan.Regions) != len(wantSlots) {
		t.Fatalf("%d regions, want %d", len(plan.Regions), len(wantSlots))
	}
	for r, want := range wantSlots {
		if got := len(plan.Regions[r].Prefetch); got != want {
			t.Fatalf("region %d prefetches %d lines, want %d", r, got, want)
		}
	}
	if plan.Peak > cap {
		t.Fatalf("peak %d exceeds capacity %d", plan.Peak, cap)
	}
	if plan.Peak < plan.SerialPeak {
		t.Fatalf("peak %d below serial peak %d", plan.Peak, plan.SerialPeak)
	}
	// Conservation: every staging op — a stage and an unstage of each
	// of the 3+wide lines — lands in exactly one phase.
	if got, want := plan.Hoisted+plan.Retired+plan.Barriered, 2*(3+wide); got != want {
		t.Fatalf("plan accounts %d staging ops, the program has %d", got, want)
	}
}

// Over capacity the planner must degrade to the serial order: the
// lookahead buys overlap only out of spare capacity.
func TestPlanPipelineDepthDegradesToSerial(t *testing.T) {
	plan, err := PlanPipelineDepth(pipeProg(1), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Hoisted != 0 {
		t.Fatalf("tight capacity hoisted %d stages", plan.Hoisted)
	}
	for r, reg := range plan.Regions {
		if len(reg.Prefetch) != 0 {
			t.Fatalf("region %d has prefetches %v under tight capacity", r, reg.Prefetch)
		}
	}
	if plan.Peak > 2 {
		t.Fatalf("peak %d exceeds the serial footprint", plan.Peak)
	}
}

// A gap that re-stages a line it just unstaged must not hoist that
// stage ahead of the unstage, however much capacity is spare.
func TestPlanPipelineRespectsSameLineReuse(t *testing.T) {
	l := LineA(0, 0)
	prog := &Program{
		Algorithm: "reuse",
		Cores:     1,
		Resources: Resources{SharedBlocks: 8, CoreBlocks: 1},
		Body: func(b Backend) {
			b.StageShared(l)
			b.Parallel(func(c int, ops CoreSink) {
				ops.Stage(l)
				ops.Apply(FactorTile, l)
				ops.Unstage(l)
			})
			b.UnstageShared(l)
			b.StageShared(l) // same line again: must wait for the unstage
			b.Parallel(func(c int, ops CoreSink) {
				ops.Stage(l)
				ops.Apply(FactorTile, l)
				ops.Unstage(l)
			})
			b.UnstageShared(l)
		},
	}
	plan, err := PlanPipelineDepth(prog, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(plan.Regions[0].Prefetch); got != 0 {
		t.Fatalf("re-stage of an unstaged line was prefetched: %v", plan.Regions[0].Prefetch)
	}
	if len(plan.Regions[1].Barrier) != 2 {
		t.Fatalf("re-stage gap must stay serial, got barrier=%v retire=%v",
			plan.Regions[1].Barrier, plan.Regions[1].Retire)
	}
}

// A stage whose line an overlapped region touches must not prefetch
// over it: serially that region would have faulted on a non-resident
// line, and the prefetch must not mask the fault.
func TestPlanPipelineWillNotMaskNonResidentFault(t *testing.T) {
	early, late := LineA(0, 0), LineA(1, 1)
	prog := &Program{
		Algorithm: "mask",
		Cores:     1,
		Resources: Resources{SharedBlocks: 8, CoreBlocks: 2},
		Body: func(b Backend) {
			b.StageShared(early)
			b.Parallel(func(c int, ops CoreSink) {
				ops.Stage(early)
				ops.Stage(late) // bug: late is staged shared only afterwards
				ops.Apply(MulSub, early, early, late)
				ops.Unstage(late)
				ops.Unstage(early)
			})
			b.StageShared(late)
			b.Parallel(func(c int, ops CoreSink) {
				ops.Stage(late)
				ops.Apply(FactorTile, late)
				ops.Unstage(late)
			})
			b.UnstageShared(late)
			b.UnstageShared(early)
		},
	}
	plan, err := PlanPipelineDepth(prog, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for r, reg := range plan.Regions {
		if len(reg.Prefetch) != 0 {
			t.Fatalf("stage of a line region %d touches was prefetched: %v", r, reg.Prefetch)
		}
	}
}

// The static inclusion check: a shared unstage of a line some core
// still holds is the schedule bug the serial executor faults on at
// runtime; the planner must reject it up front.
func TestPlanPipelineRejectsInclusionViolation(t *testing.T) {
	l := LineA(0, 0)
	prog := &Program{
		Algorithm: "inclusion",
		Cores:     1,
		Resources: Resources{SharedBlocks: 4, CoreBlocks: 2},
		Body: func(b Backend) {
			b.StageShared(l)
			b.Parallel(func(c int, ops CoreSink) {
				ops.Stage(l)
				ops.Apply(FactorTile, l)
				// no core Unstage: the core still holds l
			})
			b.UnstageShared(l)
		},
	}
	_, err := PlanPipelineDepth(prog, 4, 1)
	if err == nil || !strings.Contains(err.Error(), "still holds") {
		t.Fatalf("inclusion violation not rejected: %v", err)
	}
}

func TestPlanPipelineRejectsBadCapacity(t *testing.T) {
	if _, err := PlanPipelineDepth(pipeProg(1), 0, 1); err == nil {
		t.Fatal("non-positive capacity must be rejected")
	}
	if _, err := PlanPipelineDepth(pipeProg(1), 4, 0); err == nil {
		t.Fatal("non-positive lookahead depth must be rejected")
	}
}

// The planner builds the depth-1 double buffer only: any other depth
// is an error that names it.
func TestPlanPipelineDepthOneOnly(t *testing.T) {
	for _, d := range []int{-1, 0, 2} {
		_, err := PlanPipelineDepth(pipeProg(1), 4, d)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("got %d", d)) {
			t.Errorf("depth %d: want an error naming it, got %v", d, err)
		}
	}
}

// PlanSerial is the same pass at depth 0: with all the spare capacity
// the pipelined plan overlaps, every gap op stays a barrier op in
// program order, and the pass's static checks still gate the program.
func TestPlanSerialKeepsEveryOpOnTheBarrier(t *testing.T) {
	plan, err := PlanSerial(pipeProg(1), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Regions) != 2 || plan.Depth != 0 {
		t.Fatalf("planned %d regions at depth %d, want 2 at depth 0", len(plan.Regions), plan.Depth)
	}
	// Lower numbers the lines in first-sight order: A[0,0], A[0,1],
	// A[1,0], A[1,1] are IDs 0–3.
	if lines := []Line{LineA(0, 0), LineA(0, 1), LineA(1, 0), LineA(1, 1)}; !slices.Equal(plan.Lines, lines) {
		t.Fatalf("plan line table %v, want %v", plan.Lines, lines)
	}
	want := [][]SharedOp{
		{{Line: 0}, {Line: 1}},
		{{Line: 0, Unstage: true}, {Line: 1, Unstage: true}, {Line: 2}, {Line: 3}},
	}
	for r, reg := range plan.Regions {
		if len(reg.Prefetch) != 0 || len(reg.Retire) != 0 {
			t.Fatalf("region %d overlaps staging: prefetch=%v retire=%v", r, reg.Prefetch, reg.Retire)
		}
		if len(reg.Barrier) != len(want[r]) {
			t.Fatalf("region %d barrier %v, want %v", r, reg.Barrier, want[r])
		}
		for i, op := range reg.Barrier {
			if op != want[r][i] {
				t.Fatalf("region %d barrier %v, want %v", r, reg.Barrier, want[r])
			}
		}
	}
	if len(plan.Tail) != 2 || plan.Barriered != 8 || plan.Hoisted != 0 || plan.Retired != 0 {
		t.Fatalf("tail %v, barriered/hoisted/retired = %d/%d/%d, want 2 tail ops and 8/0/0",
			plan.Tail, plan.Barriered, plan.Hoisted, plan.Retired)
	}
	if plan.Peak != 2 || plan.SerialPeak != 2 || plan.Overlapped() != 0 {
		t.Fatalf("peak %d (serial %d), overlap %g; want 2 (2), 0", plan.Peak, plan.SerialPeak, plan.Overlapped())
	}
	if _, err := PlanSerial(pipeProg(1), 0); err == nil {
		t.Fatal("non-positive capacity must be rejected")
	}
}
