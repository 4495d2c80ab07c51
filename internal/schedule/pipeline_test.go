package schedule

import (
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
// Apply per early region, each prefetch slot's hide quota saturates at
// pipelineHidePerApply — so deeper lookahead strictly increases how
// much of the wide gap can leave the critical path.
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

// TestPlanPipelineDepthTable drives the depth-k planner across k ∈
// {1,2,3,4} on the chain program: each early region hides at most
// pipelineHidePerApply stages (one Apply each), so the 20-stage gap
// saturates slot g−1 at depth 1 and spills into earlier regions as the
// lookahead deepens — depth 3 hoists strictly more stages than depth 2.
// Depth 4 is clamped at the program's first region and must match
// depth 3. At every depth the plan's footprint stays within capacity
// and no staging operation is lost.
func TestPlanPipelineDepthTable(t *testing.T) {
	const wide = 20
	const cap = 30
	cases := []struct {
		depth       int
		wantHoisted int
		wantSlots   []int // Prefetch list length per region
	}{
		{depth: 1, wantHoisted: 10, wantSlots: []int{1, 1, 8, 0}},
		{depth: 2, wantHoisted: 17, wantSlots: []int{1, 8, 8, 0}},
		{depth: 3, wantHoisted: 22, wantSlots: []int{6, 8, 8, 0}},
		{depth: 4, wantHoisted: 22, wantSlots: []int{6, 8, 8, 0}},
	}
	total := -1
	for _, tc := range cases {
		plan, err := PlanPipelineDepth(chainProg(wide), cap, tc.depth)
		if err != nil {
			t.Fatalf("depth %d: %v", tc.depth, err)
		}
		if plan.Depth != tc.depth {
			t.Fatalf("depth %d: plan records depth %d", tc.depth, plan.Depth)
		}
		if plan.Hoisted != tc.wantHoisted {
			t.Fatalf("depth %d: hoisted %d, want %d", tc.depth, plan.Hoisted, tc.wantHoisted)
		}
		if len(plan.Regions) != len(tc.wantSlots) {
			t.Fatalf("depth %d: %d regions, want %d", tc.depth, len(plan.Regions), len(tc.wantSlots))
		}
		for r, want := range tc.wantSlots {
			if got := len(plan.Regions[r].Prefetch); got != want {
				t.Fatalf("depth %d: region %d prefetches %d lines, want %d", tc.depth, r, got, want)
			}
		}
		if plan.Peak > cap {
			t.Fatalf("depth %d: peak %d exceeds capacity %d", tc.depth, plan.Peak, cap)
		}
		if plan.Peak < plan.SerialPeak {
			t.Fatalf("depth %d: peak %d below serial peak %d", tc.depth, plan.Peak, plan.SerialPeak)
		}
		// Conservation: every staging op lands in exactly one phase.
		if got := plan.Hoisted + plan.Retired + plan.Barriered; total == -1 {
			total = got
		} else if got != total {
			t.Fatalf("depth %d: plan accounts %d staging ops, other depths saw %d", tc.depth, got, total)
		}
	}
	// The satellite case, stated directly: lookahead 3 hoists strictly
	// more stages than lookahead 2.
	p2, err := PlanPipelineDepth(chainProg(wide), cap, 2)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := PlanPipelineDepth(chainProg(wide), cap, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Hoisted <= p2.Hoisted {
		t.Fatalf("depth 3 hoisted %d, not strictly more than depth 2's %d", p3.Hoisted, p2.Hoisted)
	}
}

// Over capacity the depth-k planner must degrade to the serial order at
// every lookahead: depth buys overlap only out of spare capacity.
func TestPlanPipelineDepthDegradesToSerial(t *testing.T) {
	for _, depth := range []int{1, 2, 3, 4} {
		plan, err := PlanPipelineDepth(pipeProg(1), 2, depth)
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if plan.Hoisted != 0 {
			t.Fatalf("depth %d: tight capacity hoisted %d stages", depth, plan.Hoisted)
		}
		for r, reg := range plan.Regions {
			if len(reg.Prefetch) != 0 {
				t.Fatalf("depth %d: region %d has prefetches %v under tight capacity", depth, r, reg.Prefetch)
			}
		}
		if plan.Peak > 2 {
			t.Fatalf("depth %d: peak %d exceeds the serial footprint", depth, plan.Peak)
		}
	}
}

// A gap that re-stages a line it just unstaged must not hoist that
// stage ahead of the unstage, however much capacity is spare — and at
// depth > 1 the prefetch must not cross an unstage of the same line in
// an earlier gap either.
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
	for _, depth := range []int{1, 2, 3} {
		plan, err := PlanPipelineDepth(prog, 8, depth)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(plan.Regions[0].Prefetch); got != 0 {
			t.Fatalf("depth %d: re-stage of an unstaged line was prefetched: %v", depth, plan.Regions[0].Prefetch)
		}
		if len(plan.Regions[1].Barrier) != 2 {
			t.Fatalf("depth %d: re-stage gap must stay serial, got barrier=%v retire=%v",
				depth, plan.Regions[1].Barrier, plan.Regions[1].Retire)
		}
	}
}

// A stage whose line an overlapped region touches must not prefetch
// over it: serially that region would have faulted on a non-resident
// line, and the prefetch must not mask the fault — at any depth.
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
	for _, depth := range []int{1, 2, 3} {
		plan, err := PlanPipelineDepth(prog, 8, depth)
		if err != nil {
			t.Fatal(err)
		}
		for r, reg := range plan.Regions {
			if len(reg.Prefetch) != 0 {
				t.Fatalf("depth %d: stage of a line region %d touches was prefetched: %v", depth, r, reg.Prefetch)
			}
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
	want := [][]PipelinedOp{
		{{Line: LineA(0, 0)}, {Line: LineA(0, 1)}},
		{{Line: LineA(0, 0), Unstage: true}, {Line: LineA(0, 1), Unstage: true}, {Line: LineA(1, 0)}, {Line: LineA(1, 1)}},
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
