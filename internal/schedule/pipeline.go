package schedule

import (
	"fmt"
	"slices"
)

// This file is the region-lookahead pass behind the pipelined executor:
// it splits a program's shared-level staging stream into per-region
// phases that a double-buffered backend can overlap with compute, while
// proving — before anything runs — that the overlapped residency still
// fits the declared shared capacity and that the reordering can never
// change which blocks are resident when a core touches them.
//
// Executed in program order, every StageShared/UnstageShared between
// two parallel regions sits on the critical path behind the team
// barrier. The lookahead is the classic double buffer, depth 1: it
// classifies each of those gap operations into one of three phases:
//
//	Prefetch stages executed while the region just before their gap
//	         still computes (the prefetch half of the double buffer);
//	Barrier  operations that must stay on the critical path, after the
//	         previous region completes and before the next one starts;
//	Retire   trailing write-backs executed while the *next* region
//	         already computes (the retire half of the double buffer).
//
// A stage of the gap before region g may prefetch during region g−1
// when four conditions hold:
//
//   - capacity: the line is physically resident from its prefetch
//     during region g−1 until its serial position in gap g, so the
//     exact residency profile over that window — serial residency plus
//     every earlier prefetch's extra — must stay within the capacity
//     with one more line. The plan thereby proves that the combined
//     two-region footprint fits CS.
//   - visibility: region g−1 does not touch the line (the serial
//     schedule would have faulted on a non-resident access; the
//     prefetch must not mask that fault).
//   - order: no unstage of the same line sits earlier in gap g.
//   - hiding: region g−1 has hide quota left. A region can only hide
//     staging behind compute it actually performs, so each region's
//     prefetch budget is proportional to its Apply count (one tile
//     kernel is Θ(q³) flops against a Θ(q²) block copy); stages past
//     the quota stay on the barrier.
//
// An unstage is retirable when it trails every deferred stage of its
// gap and the next region never touches its line. Everything else
// stays a barrier op, at its program-order position — so a schedule
// with no slack degrades to the serial order, never to an incorrect
// one. At depth 0 (PlanSerial) nothing is hoisted or retired: every gap
// op is a barrier op, which is how a backend without overlap runs the
// stream.
//
// Deeper lookahead — prefetching a stage several regions ahead of its
// gap — gave the depth-1 plan, or a plan timed within noise of it, on
// every program measured (README, "Pipeline depth"), so the planner
// builds depth 1 only.
//
// The pass also proves the inclusion discipline statically: a shared
// unstage whose line is still resident in some core's distributed cache
// is rejected here, because a backend that retires write-backs
// concurrently with worker regions cannot re-check residency at
// runtime without racing the workers.

// pipelineHidePerApply is the static time-hiding model: one Apply
// (Θ(q³) flops) is assumed able to hide this many block stages (Θ(q²)
// copies each). It caps what one region hides: the stages of a gap
// past its preceding region's quota stay on the barrier.
const pipelineHidePerApply = 8

// PipelineRegion phases the shared staging gap that precedes one
// numbered parallel region of the program's trace (see Step.Region).
// Its lists name lines by ID in the plan's line table (PipelinePlan.Lines).
type PipelineRegion struct {
	// Prefetch holds the StageShared lines the driver stages while THIS
	// region computes; every entry serves the next region's gap (for the
	// first region's gap there is nothing to overlap, so it is all
	// Barrier).
	Prefetch []LineID
	// Barrier holds the gap operations that stay on the critical path:
	// they run after the previous region's cores finish and before this
	// region's cores start, in program order.
	Barrier []SharedOp
	// Retire holds the UnstageShared lines written back while this
	// region computes.
	Retire []LineID
}

// PipelinePlan is the lookahead's result: one phased gap per parallel
// region plus the trailing shared operations after the last region, and
// the footprint/overlap accounting the backend reports.
type PipelinePlan struct {
	Regions []PipelineRegion
	// Tail holds the shared operations after the last region, run once
	// its cores finish (nothing left to overlap them with).
	Tail []SharedOp
	// Lines resolves the line IDs of every list: it is the line table
	// of the trace the plan was built from (Trace.Lines), shared with
	// that trace.
	Lines []Line

	// Depth is the lookahead the plan was built with: 1 for
	// PlanPipelineDepth, 0 for PlanSerial.
	Depth int
	// SerialPeak is the peak shared residency of the in-order schedule
	// on the fullest chip — WorkingSet.SharedPeak, re-derived here.
	// Residency is tracked per home chip throughout: each staged line
	// occupies a slot only in its home chip's arena, and sharedCap is
	// the per-chip capacity.
	SerialPeak int
	// Peak is the peak shared residency of the fullest chip including
	// prefetched lines: the overlapped two-region footprint the plan
	// proved to fit the per-chip capacity.
	Peak int
	// Hoisted, Retired and Barriered count the staging operations (both
	// directions) moved off the critical path — prefetched ahead of it
	// or retired behind it — and the ones left on it.
	Hoisted, Retired, Barriered int
}

// Overlapped reports the fraction of shared staging operations the plan
// moved off the critical path.
func (p *PipelinePlan) Overlapped() float64 {
	total := p.Hoisted + p.Retired + p.Barriered
	if total == 0 {
		return 0
	}
	return float64(p.Hoisted+p.Retired) / float64(total)
}

// PlanPipelineDepth walks p's trace (see Lower) and phases every
// shared staging gap for a double-buffered backend with sharedCap
// slots. depth is the lookahead, and 1 — the classic 2-region double
// buffer, where a gap's stages prefetch only over the region just
// before it — is the only depth it plans; any other depth is an
// error. It fails when the program violates the inclusion discipline
// (a shared unstage of a line still staged in some core) or when the
// planned overlapped footprint cannot fit sharedCap, which cannot
// happen for a program whose serial working set fits (prefetching
// never exceeds the capacity by construction) and is checked anyway as
// the pass's own invariant.
func PlanPipelineDepth(p *Program, sharedCap, depth int) (*PipelinePlan, error) {
	if depth != 1 {
		return nil, fmt.Errorf("schedule: pipeline plan supports lookahead depth 1 only, got %d", depth)
	}
	return planPipeline(p, sharedCap, depth)
}

// PlanSerial phases p for a backend that overlaps nothing: every gap op
// is a Barrier op in program order, nothing is hoisted or retired, and
// the plan's Depth is 0. It is the same pass as PlanPipelineDepth, so
// the same static inclusion and capacity proofs gate the serial stream.
func PlanSerial(p *Program, sharedCap int) (*PipelinePlan, error) {
	return planPipeline(p, sharedCap, 0)
}

func planPipeline(p *Program, sharedCap, depth int) (*PipelinePlan, error) {
	if sharedCap <= 0 {
		return nil, fmt.Errorf("schedule: pipeline plan needs a positive shared capacity, got %d", sharedCap)
	}
	t, err := p.Lower()
	if err != nil {
		return nil, err
	}
	g, err := collectGaps(p, t)
	if err != nil {
		return nil, err
	}
	plan := g.plan(t, p.Resources.ChipCount(), sharedCap, depth)
	if plan.Peak > sharedCap {
		return nil, fmt.Errorf("schedule: pipelined footprint of %d blocks at lookahead %d exceeds the shared capacity %d",
			plan.Peak, depth, sharedCap)
	}
	return plan, nil
}

// plan phases the gaps of trace t at the given depth (0 or 1) for
// chips shared arenas of sharedCap slots each. It tracks residency per
// home chip — a staged line fills a slot only in its home chip's
// arena, so a prefetch decision probes that chip's profile alone — and
// only over the window a depth-1 prefetch spans: the previous region
// and the ops of its own gap before it.
func (g *pipeGaps) plan(t *Trace, chips, sharedCap, depth int) *PipelinePlan {
	plan := &PipelinePlan{
		Regions:   make([]PipelineRegion, len(g.gaps)),
		Tail:      g.tail,
		Lines:     t.Lines,
		Depth:     depth,
		Barriered: len(g.tail),
	}
	for _, peak := range g.chipPeak {
		plan.SerialPeak = max(plan.SerialPeak, peak)
	}
	plan.Peak = plan.SerialPeak
	// res[c] is chip c's serial residency before the next gap op. While
	// the gap before region r is planned, lead[c] is chip c's residency
	// during region r−1, prefetches included, and hi[c] the peak of its
	// profile over the gap's ops so far, each holding the prefetches of
	// later ops early.
	res := make([]int, chips)
	lead, hi := make([]int, chips), make([]int, chips)
	// pending[id] == r+1 marks id unstaged earlier in the gap before r.
	pending := make([]int, len(t.Lines))
	for r, gap := range g.gaps {
		reg := &plan.Regions[r]
		if r == 0 || depth == 0 {
			// Nothing precedes the first region, so its gap runs up front;
			// at depth 0 every gap does.
			reg.Barrier = gap
			plan.Barriered += len(gap)
			for _, op := range gap {
				res[t.Homes[op.Line]] += op.delta()
			}
			continue
		}
		prev := &plan.Regions[r-1]
		copy(lead, res)
		clear(hi)
		quota := pipelineHidePerApply * g.applies[r-1]
		var deferred []SharedOp
		for _, op := range gap {
			ch := t.Homes[op.Line]
			if op.Unstage {
				pending[op.Line] = r + 1
			}
			// A stage prefetches during region r−1 when no earlier op of
			// its gap unstages its line, the region has hide quota left and
			// does not touch the line, and one more slot fits its chip's
			// profile from region r−1 up to this op.
			peak := max(lead[ch], hi[ch]) + 1
			hoist := !op.Unstage && pending[op.Line] != r+1 && quota > 0 &&
				!g.touches(r-1, op.Line) && peak <= sharedCap
			// Fold in this op's own profile point; a prefetched line then
			// holds one more slot on its chip at every point so far.
			for c := range hi {
				hi[c] = max(hi[c], res[c])
			}
			if hoist {
				prev.Prefetch = append(prev.Prefetch, op.Line)
				plan.Peak = max(plan.Peak, peak)
				plan.Hoisted++
				quota--
				lead[ch]++
				hi[ch]++
			} else {
				deferred = append(deferred, op)
			}
			res[ch] += op.delta()
		}
		// Split the deferred ops at the last stage: the trailing
		// unstages may retire under the next region's compute, unless
		// that region touches one of their lines (then the whole tail
		// stays a barrier, preserving the serial fault).
		last := -1
		for i, op := range deferred {
			if !op.Unstage {
				last = i
			}
		}
		retire := deferred[last+1:]
		reg.Barrier = deferred
		if !slices.ContainsFunc(retire, func(op SharedOp) bool { return g.touches(r, op.Line) }) {
			reg.Barrier = deferred[:last+1]
			for _, op := range retire {
				reg.Retire = append(reg.Retire, op.Line)
			}
		}
		plan.Retired += len(reg.Retire)
		plan.Barriered += len(reg.Barrier)
	}
	return plan
}

// delta is the op's change to the residency of its line's home chip.
func (op SharedOp) delta() int {
	if op.Unstage {
		return -1
	}
	return 1
}

// pipeGaps is the planner's view of a trace: the shared staging stream
// split into gaps at every numbered region, each region's shared-slot
// touch set (the lines its cores refill from or merge into the shared
// level) and its per-core Apply maximum (the hide-quota base), and the
// serial residency peak per chip.
type pipeGaps struct {
	gaps     [][]SharedOp // gaps[r] precedes region r
	tail     []SharedOp   // the shared ops after the last region
	touch    [][]LineID   // per-region shared-slot touches, sorted by ID
	applies  []int        // per-region max per-core Apply count
	chipPeak []int        // serial residency peak per chip
}

// touches reports whether region r's cores refill from or merge into
// line l's shared slot.
func (g *pipeGaps) touches(r int, l LineID) bool {
	_, hit := slices.BinarySearch(g.touch[r], l)
	return hit
}

// collectGaps walks t for the planner, tracking per-core residency
// across regions for the static inclusion check: a shared unstage of a
// line some core still holds fails the plan.
func collectGaps(p *Program, t *Trace) (*pipeGaps, error) {
	chips := p.Resources.ChipCount()
	n := len(t.Lines)
	g := &pipeGaps{chipPeak: make([]int, chips)}
	shared := make([]bool, n)
	sharedN := make([]int, chips)
	coreRes := make([][]bool, max(p.Cores, 0))
	for c := range coreRes {
		coreRes[c] = make([]bool, n)
	}
	seen := make([]int, n) // seen[id] == r+1: id is already in region r's touch set
	var touched []LineID   // every region's touch set, back to back
	var cur []SharedOp
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.Cores == nil {
			id := s.Shared.Line
			home := t.Homes[id]
			if s.Shared.Unstage {
				for c, res := range coreRes {
					if res[id] {
						return nil, fmt.Errorf("schedule: pipeline plan: shared unstage of %v while core %d still holds it", t.Lines[id], c)
					}
				}
				if shared[id] {
					shared[id] = false
					sharedN[home]--
				}
			} else if !shared[id] {
				shared[id] = true
				sharedN[home]++
				g.chipPeak[home] = max(g.chipPeak[home], sharedN[home])
			}
			cur = append(cur, s.Shared)
			continue
		}
		if s.Region < 0 {
			// No barrier runs for a region without work, so the gaps
			// around it merge.
			continue
		}
		r := len(g.gaps)
		start := len(touched)
		applies := 0
		for c, ops := range s.Cores {
			n := 0
			for j := range ops {
				id := ops[j].Line
				switch ops[j].Kind {
				case OpStage, OpUnstage:
					coreRes[c][id] = ops[j].Kind == OpStage
					if seen[id] != r+1 {
						seen[id] = r + 1
						touched = append(touched, id)
					}
				case OpApply:
					n++
				}
			}
			applies = max(applies, n)
		}
		slices.Sort(touched[start:])
		g.gaps = append(g.gaps, cur)
		cur = nil
		g.touch = append(g.touch, touched[start:len(touched):len(touched)])
		g.applies = append(g.applies, applies)
	}
	g.tail = cur
	return g, nil
}
