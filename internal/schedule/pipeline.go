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
// barrier. The lookahead classifies each of those gap operations into
// one of three phases:
//
//	Prefetch stages executed while an *earlier* region still computes
//	         (the prefetch half of the double buffer); with lookahead
//	         depth k a stage may move up to k regions ahead of its gap;
//	Barrier  operations that must stay on the critical path, after the
//	         previous region completes and before the next one starts;
//	Retire   trailing write-backs executed while the *next* region
//	         already computes (the retire half of the double buffer).
//
// A stage of the gap before region g may prefetch during region
// h ∈ [g−k, g−1] when four conditions hold, checked latest slot first:
//
//   - capacity: the line is physically resident from its prefetch
//     during region h until its serial position in gap g, so the exact
//     residency profile over that whole window — serial residency plus
//     every earlier prefetch's extra — must stay within the capacity
//     with one more line. This is the generalised footprint rule: at
//     depth k up to k regions' worth of staging may be in flight, and
//     the plan proves the combined (k+1)-region footprint fits CS.
//   - visibility: none of the overlapped regions h..g−1 touches the
//     line (the serial schedule would have faulted on a non-resident
//     access; the prefetch must not mask that fault).
//   - order: no unstage of the same line sits between the prefetch
//     slot and the stage's serial position — not in the crossed gaps,
//     not earlier in its own gap.
//   - hiding: region h has hide quota left. A region can only hide
//     staging behind compute it actually performs, so each region's
//     prefetch budget is proportional to its Apply count (one tile
//     kernel is Θ(q³) flops against a Θ(q²) block copy). The quota is
//     what makes depth real: slot g−1 saturates and the surplus moves
//     to g−2, instead of piling every prefetch onto the region just
//     before the gap and overrunning its compute window.
//
// An unstage is retirable when it trails every deferred stage of its
// gap and the next region never touches its line. Everything else
// stays a barrier op, at its program-order position — so a schedule
// with no slack degrades to the serial order, never to an incorrect
// one. At depth 0 (PlanSerial) nothing is hoisted or retired: every gap
// op is a barrier op, which is how a backend without overlap runs the
// stream.
//
// The pass also proves the inclusion discipline statically: a shared
// unstage whose line is still resident in some core's distributed cache
// is rejected here, because a backend that retires write-backs
// concurrently with worker regions cannot re-check residency at
// runtime without racing the workers.

// pipelineHidePerApply is the static time-hiding model: one Apply
// (Θ(q³) flops) is assumed able to hide this many block stages (Θ(q²)
// copies each). The constant is deliberately generous: the planner
// must not barrier staging a region could have hidden.
const pipelineHidePerApply = 8

// PipelinedOp is one shared-level staging operation of a gap between
// parallel regions, in program order.
type PipelinedOp struct {
	Line    Line
	Unstage bool
}

// PipelineRegion phases the shared staging gap that precedes one
// numbered parallel region of the program's trace (see Step.Region).
type PipelineRegion struct {
	// Prefetch holds the StageShared lines the driver stages while THIS
	// region computes. At depth 1 every entry serves the next gap; at
	// deeper lookahead the list may mix stages for gaps up to Depth
	// regions ahead, in gap order (for the first region's gap there is
	// nothing to overlap, so it is all Barrier).
	Prefetch []Line
	// Barrier holds the gap operations that stay on the critical path:
	// they run after the previous region's cores finish and before this
	// region's cores start, in program order.
	Barrier []PipelinedOp
	// Retire holds the UnstageShared lines written back while this
	// region computes.
	Retire []Line

	// PrefetchIDs, BarrierIDs and RetireIDs are the same three lists by
	// line ID of the trace the plan was built from (see Trace.Lines):
	// what a backend replaying that trace addresses its slots by. Plans
	// built by hand may leave them empty; nothing but the executor reads
	// them.
	PrefetchIDs []LineID
	BarrierIDs  []SharedOp
	RetireIDs   []LineID
}

// PipelinePlan is the lookahead's result: one phased gap per parallel
// region plus the trailing shared operations after the last region, and
// the footprint/overlap accounting the backend reports.
type PipelinePlan struct {
	Regions []PipelineRegion
	// Tail holds the shared operations after the last region, run once
	// its cores finish (nothing left to overlap them with). TailIDs is
	// the same list by line ID, like PipelineRegion's ID lists.
	Tail    []PipelinedOp
	TailIDs []SharedOp

	// Depth is the lookahead the plan was built with: the maximum number
	// of regions a stage may prefetch ahead of its gap (0 for PlanSerial).
	Depth int
	// SerialPeak is the peak shared residency of the in-order schedule
	// on the fullest chip — WorkingSet.SharedPeak, re-derived here.
	// Residency is tracked per home chip throughout: each staged line
	// occupies a slot only in its home chip's arena, and sharedCap is
	// the per-chip capacity.
	SerialPeak int
	// Peak is the peak shared residency of the fullest chip including
	// prefetched lines: the overlapped footprint (up to k+1 regions'
	// worth at depth k) the plan proved to fit the per-chip capacity.
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
// slots and the given lookahead depth (how many regions ahead of its
// gap a stage may prefetch); depth 1 is the classic 2-region double
// buffer, where a gap's stages prefetch only over the region just
// before it. It fails when the program violates the
// inclusion discipline (a shared unstage of a line still staged in
// some core) or when the planned overlapped footprint cannot fit
// sharedCap, which cannot happen for a program whose serial working
// set fits (prefetching never exceeds the capacity by construction)
// and is checked anyway as the pass's own invariant.
func PlanPipelineDepth(p *Program, sharedCap, depth int) (*PipelinePlan, error) {
	if depth < 1 {
		return nil, fmt.Errorf("schedule: pipeline plan needs a lookahead depth ≥ 1, got %d", depth)
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
	pl := &pipePlanner{
		pipeGaps: g,
		cap:      sharedCap,
		chips:    p.Resources.ChipCount(),
		lines:    t.Lines,
		homes:    t.Homes,
		depth:    depth,
	}
	plan := pl.plan()
	plan.TailIDs = g.tail
	plan.Tail = pl.lineOps(g.tail)
	plan.Barriered += len(plan.Tail)
	if plan.SerialPeak > plan.Peak {
		plan.Peak = plan.SerialPeak
	}
	if plan.Peak > sharedCap {
		return nil, fmt.Errorf("schedule: pipelined footprint of %d blocks at lookahead %d exceeds the shared capacity %d",
			plan.Peak, depth, sharedCap)
	}
	return plan, nil
}

// pipePlanner carries the exact residency bookkeeping of one planning
// pass. Serial profiles are fixed up front; the extra arrays record, at
// every point a prefetch decision can probe, how many early-resident
// lines previous commitments already parked there. All residency is
// per home chip — a staged line fills a slot only in its home chip's
// arena, so capacity decisions probe that chip's profile alone.
type pipePlanner struct {
	*pipeGaps
	cap, depth int
	chips      int
	lines      []Line // the trace's line table
	homes      []int  // home chip per line ID

	resAfter [][]int   // [chip][r]: serial residency while region r computes (gap r applied)
	posRes   [][][]int // [chip][g][i]: serial residency before op i of gap g

	regionExtra [][]int   // [chip][r]: early-resident lines during region r
	gapExtra    [][][]int // [chip][g][i]: early-resident lines at gap g position i
	quota       []int     // remaining hide quota of region r

	slots [][]LineID // prefetch list per region, in commit (gap-major) order
}

func (pl *pipePlanner) plan() *PipelinePlan {
	R := len(pl.gaps)
	plan := &PipelinePlan{Depth: pl.depth}
	for _, peak := range pl.chipPeak {
		if peak > plan.SerialPeak {
			plan.SerialPeak = peak
		}
	}

	pl.resAfter = make([][]int, pl.chips)
	pl.posRes = make([][][]int, pl.chips)
	pl.regionExtra = make([][]int, pl.chips)
	pl.gapExtra = make([][][]int, pl.chips)
	for ch := 0; ch < pl.chips; ch++ {
		pl.resAfter[ch] = make([]int, R)
		pl.posRes[ch] = make([][]int, R)
		pl.regionExtra[ch] = make([]int, R)
		pl.gapExtra[ch] = make([][]int, R)
	}
	pl.quota = make([]int, R)
	pl.slots = make([][]LineID, R)
	res := make([]int, pl.chips)
	for g, gap := range pl.gaps {
		for ch := 0; ch < pl.chips; ch++ {
			pl.posRes[ch][g] = make([]int, len(gap))
			pl.gapExtra[ch][g] = make([]int, len(gap))
		}
		for i, op := range gap {
			for ch := 0; ch < pl.chips; ch++ {
				pl.posRes[ch][g][i] = res[ch]
			}
			if op.Unstage {
				res[pl.homes[op.Line]]--
			} else {
				res[pl.homes[op.Line]]++
			}
		}
		for ch := 0; ch < pl.chips; ch++ {
			pl.resAfter[ch][g] = res[ch]
		}
		pl.quota[g] = pipelineHidePerApply * pl.applies[g]
	}

	regs := make([]PipelineRegion, R)
	// pending[id] == g+1 marks id unstaged earlier in gap g.
	pending := make([]int, len(pl.lines))
	for g, gap := range pl.gaps {
		reg := &regs[g]
		if g == 0 || pl.depth == 0 {
			// Nothing precedes the first region, so its gap runs up front;
			// at depth 0 every gap does.
			reg.BarrierIDs = gap
			plan.Barriered += len(gap)
			continue
		}
		var deferred []SharedOp
		hoisted := 0
		for i, op := range gap {
			if op.Unstage {
				pending[op.Line] = g + 1
				deferred = append(deferred, op)
				continue
			}
			if pending[op.Line] == g+1 {
				deferred = append(deferred, op)
				continue
			}
			if peak, ok := pl.place(g, i, op.Line); ok {
				hoisted++
				if peak > plan.Peak {
					plan.Peak = peak
				}
				continue
			}
			deferred = append(deferred, op)
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
		reg.BarrierIDs = deferred[:last+1]
		retire := deferred[last+1:]
		safe := true
		for _, op := range retire {
			if pl.touches(g, op.Line) {
				safe = false
				break
			}
		}
		if safe {
			for _, op := range retire {
				reg.RetireIDs = append(reg.RetireIDs, op.Line)
			}
		} else {
			reg.BarrierIDs = deferred
		}
		plan.Hoisted += hoisted
		plan.Retired += len(reg.RetireIDs)
		plan.Barriered += len(reg.BarrierIDs)
	}
	for r := range regs {
		reg := &regs[r]
		reg.PrefetchIDs = pl.slots[r]
		reg.Prefetch = pl.lineList(reg.PrefetchIDs)
		reg.Barrier = pl.lineOps(reg.BarrierIDs)
		reg.Retire = pl.lineList(reg.RetireIDs)
	}
	plan.Regions = regs
	return plan
}

// lineList and lineOps render a plan list by line, for the plan's
// Line-typed fields.
func (pl *pipePlanner) lineList(ids []LineID) []Line {
	if ids == nil {
		return nil
	}
	out := make([]Line, len(ids))
	for i, id := range ids {
		out[i] = pl.lines[id]
	}
	return out
}

func (pl *pipePlanner) lineOps(ops []SharedOp) []PipelinedOp {
	if ops == nil {
		return nil
	}
	out := make([]PipelinedOp, len(ops))
	for i, op := range ops {
		out[i] = PipelinedOp{Line: pl.lines[op.Line], Unstage: op.Unstage}
	}
	return out
}

// place tries to commit the stage at gap g position i to the latest
// feasible prefetch slot within the lookahead window. It returns the
// committed footprint peak (residency including the new line over its
// early window) and whether a slot was found.
func (pl *pipePlanner) place(g, i int, l LineID) (int, bool) {
	lo := g - pl.depth
	if lo < 0 {
		lo = 0
	}
	for h := g - 1; h >= lo; h-- {
		// Visibility: prefetching at slot h overlaps regions h..g−1; the
		// scan is incremental — once some region touches the line, every
		// deeper slot overlaps it too.
		if pl.touches(h, l) {
			return 0, false
		}
		// Order: slot h's prefetches run during region h, i.e. after gap
		// h's barrier but before gaps h+1..g−1 replay. An unstage of the
		// same line in any of those gaps (or earlier in gap g — handled
		// by the caller's pending set) must not be crossed.
		if h+1 < g && gapUnstages(pl.gaps[h+1], l) {
			return 0, false
		}
		if pl.quota[h] == 0 {
			continue
		}
		peak, ok := pl.fits(h, g, i, pl.homes[l])
		if !ok {
			// Capacity windows only grow toward deeper slots: give up.
			return 0, false
		}
		pl.commit(h, g, i, l)
		return peak, true
	}
	return 0, false
}

// fits checks the exact capacity of prefetching one more line at slot
// h for a stage at gap g position i whose line lives on chip ch: the
// line is resident in that chip's arena from region h's compute until
// its serial position, so every profile point of that chip over the
// window must admit one more resident line.
func (pl *pipePlanner) fits(h, g, i, ch int) (int, bool) {
	m := 0
	for r := h; r < g; r++ {
		if v := pl.resAfter[ch][r] + pl.regionExtra[ch][r]; v > m {
			m = v
		}
	}
	for gp := h + 1; gp < g; gp++ {
		for j := range pl.gaps[gp] {
			if v := pl.posRes[ch][gp][j] + pl.gapExtra[ch][gp][j]; v > m {
				m = v
			}
		}
	}
	for j := 0; j < i; j++ {
		if v := pl.posRes[ch][g][j] + pl.gapExtra[ch][g][j]; v > m {
			m = v
		}
	}
	if m+1 > pl.cap {
		return 0, false
	}
	return m + 1, true
}

// commit books the prefetch: the line occupies one slot of its home
// chip's arena at every profile point between its execution during
// region h and its serial position at gap g op i.
func (pl *pipePlanner) commit(h, g, i int, l LineID) {
	ch := pl.homes[l]
	pl.slots[h] = append(pl.slots[h], l)
	pl.quota[h]--
	for r := h; r < g; r++ {
		pl.regionExtra[ch][r]++
	}
	for gp := h + 1; gp < g; gp++ {
		for j := range pl.gaps[gp] {
			pl.gapExtra[ch][gp][j]++
		}
	}
	for j := 0; j <= i && j < len(pl.gapExtra[ch][g]); j++ {
		pl.gapExtra[ch][g][j]++
	}
}

func gapUnstages(gap []SharedOp, l LineID) bool {
	for _, op := range gap {
		if op.Unstage && op.Line == l {
			return true
		}
	}
	return false
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
