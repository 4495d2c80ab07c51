package verify

import (
	"fmt"

	"repro/internal/schedule"
)

// Plan statically verifies a pipelined execution plan against the
// program it claims to phase: every prefetch must serve a real stage of
// the next region's gap without overlapping a region that touches its
// line or crossing an earlier unstage of it in that gap (HoistUnsafe),
// every retired write-back must not collide with the region it retires
// under (RetireUnsafe), every line ID must resolve through the plan's
// line table and the phased ops must reproduce the serial gap stream
// exactly — nothing lost, invented or reordered beyond the allowed
// phases (PlanMismatch) — and the overlapped residency profile,
// prefetch windows included, must fit sharedCap on every chip
// (PlanFootprint). PlanPipelineDepth enforces these rules while
// building a plan; Plan re-proves them from the outside, by line
// rather than by the trace's IDs, so a plan from any source —
// including a future dynamic scheduler — is admitted through the same
// gate.
//
// Findings reference ops by the same global emission-order index
// Program uses, so a plan finding points into the same provenance
// space as a program finding.
func Plan(p *schedule.Program, plan *schedule.PipelinePlan, sharedCap int) []Finding {
	if p == nil || p.Body == nil {
		return []Finding{{Kind: Malformed, Op: -1, Region: -1, Core: -1, Chip: -1, Detail: "nil program or body"}}
	}
	if plan == nil {
		return []Finding{{Kind: PlanMismatch, Op: -1, Region: -1, Core: -1, Chip: -1, Detail: "nil plan"}}
	}
	if p.Cores <= 0 {
		return []Finding{{Kind: Malformed, Op: -1, Region: -1, Core: -1, Chip: -1,
			Detail: fmt.Sprintf("program declares %d cores", p.Cores)}}
	}
	col := newPlanCollector(p)
	p.Body(col)

	var fs []Finding
	report := func(f Finding) { fs = append(fs, f) }

	R := len(col.gaps)
	if len(plan.Regions) != R {
		return append(fs, Finding{Kind: PlanMismatch, Op: -1, Region: -1, Core: -1, Chip: -1,
			Detail: fmt.Sprintf("plan phases %d regions, program has %d", len(plan.Regions), R)})
	}
	if fs := unresolved(plan); len(fs) > 0 {
		return fs
	}
	lines := plan.Lines

	// Attribute every prefetch to the earliest unclaimed serial stage of
	// its line in the next gap, then re-prove the planner's visibility
	// and order rules for that placement.
	claimed := make([][]bool, R)
	for g := range col.gaps {
		claimed[g] = make([]bool, len(col.gaps[g]))
	}
	type claim struct {
		h, i int // prefetched during region h for op i of gap h+1
		line schedule.Line
	}
	var claims []claim
	for h := range plan.Regions {
		for _, id := range plan.Regions[h].Prefetch {
			l, g, i := lines[id], h+1, -1
			if g < R {
				for j, op := range col.gaps[g] {
					if op.is(l, false) && !claimed[g][j] {
						i = j
						break
					}
				}
			}
			if i < 0 {
				report(Finding{Kind: PlanMismatch, Level: LevelShared, Op: -1, Region: h, Core: -1, Chip: -1, Line: l,
					Detail: "prefetch serves no unclaimed stage of the next gap"})
				continue
			}
			claimed[g][i] = true
			claims = append(claims, claim{h: h, i: i, line: l})
			opIdx := col.gaps[g][i].op
			if _, hit := col.touch[h][l]; hit {
				report(Finding{Kind: HoistUnsafe, Level: LevelShared, Op: opIdx, Region: h, Core: -1, Chip: -1, Line: l,
					Detail: "prefetch overlaps a region that touches the line"})
			}
			for j := 0; j < i; j++ {
				if col.gaps[g][j].is(l, true) {
					report(Finding{Kind: HoistUnsafe, Level: LevelShared, Op: opIdx, Region: h, Core: -1, Chip: -1, Line: l,
						Detail: "prefetch crosses the line's earlier unstage in its own gap"})
					break
				}
			}
		}
	}

	// Conservation: what the plan did not hoist must appear as this
	// gap's Barrier then Retire, in serial order.
	for g := range col.gaps {
		var rest []gapOp
		for i, op := range col.gaps[g] {
			if !claimed[g][i] {
				rest = append(rest, op)
			}
		}
		reg := plan.Regions[g]
		if len(rest) != len(reg.Barrier)+len(reg.Retire) {
			report(Finding{Kind: PlanMismatch, Level: LevelShared, Op: -1, Region: g, Core: -1, Chip: -1,
				Detail: fmt.Sprintf("gap leaves %d serial ops but the plan phases %d barrier + %d retire",
					len(rest), len(reg.Barrier), len(reg.Retire))})
			continue
		}
		ok := true
		for i, op := range reg.Barrier {
			if l := lines[op.Line]; !rest[i].is(l, op.Unstage) {
				report(Finding{Kind: PlanMismatch, Level: LevelShared, Op: rest[i].op, Region: g, Core: -1, Chip: -1, Line: l,
					Detail: "barrier op diverges from the serial gap order"})
				ok = false
				break
			}
		}
		if ok {
			for i, id := range reg.Retire {
				l, got := lines[id], rest[len(reg.Barrier)+i]
				if !got.is(l, true) {
					report(Finding{Kind: PlanMismatch, Level: LevelShared, Op: got.op, Region: g, Core: -1, Chip: -1, Line: l,
						Detail: "retire entry is not the gap's trailing unstage"})
					break
				}
				if _, hit := col.touch[g][l]; hit {
					report(Finding{Kind: RetireUnsafe, Level: LevelShared, Op: got.op, Region: g, Core: -1, Chip: -1, Line: l,
						Detail: "write-back retires under a region that touches the line"})
				}
			}
		}
	}
	if len(plan.Tail) != len(col.cur) {
		report(Finding{Kind: PlanMismatch, Level: LevelShared, Op: -1, Region: -1, Core: -1, Chip: -1,
			Detail: fmt.Sprintf("plan tail has %d ops, program tail has %d", len(plan.Tail), len(col.cur))})
	} else {
		for i, op := range plan.Tail {
			if l := lines[op.Line]; !col.cur[i].is(l, op.Unstage) {
				report(Finding{Kind: PlanMismatch, Level: LevelShared, Op: col.cur[i].op, Region: -1, Core: -1, Chip: -1, Line: l,
					Detail: "tail op diverges from the serial order"})
				break
			}
		}
	}

	// Overlapped footprint: the serial residency profile per home chip,
	// plus one slot for every claimed prefetch over its early-resident
	// window — its region and its gap up to its serial position — must
	// fit sharedCap at every profile point.
	if sharedCap > 0 && R > 0 {
		chips := p.Resources.ChipCount()
		posRes := make([][][]int, chips)
		resAfter := make([][]int, chips)
		for ch := 0; ch < chips; ch++ {
			posRes[ch] = make([][]int, R)
			resAfter[ch] = make([]int, R)
		}
		res := make([]int, chips)
		for g, gap := range col.gaps {
			for ch := 0; ch < chips; ch++ {
				posRes[ch][g] = make([]int, len(gap))
			}
			for i, op := range gap {
				for ch := 0; ch < chips; ch++ {
					posRes[ch][g][i] = res[ch]
				}
				if op.unstage {
					res[p.HomeOf(op.line)]--
				} else {
					res[p.HomeOf(op.line)]++
				}
			}
			for ch := 0; ch < chips; ch++ {
				resAfter[ch][g] = res[ch]
			}
		}
		regionExtra := make([][]int, chips)
		gapExtra := make([][][]int, chips)
		for ch := 0; ch < chips; ch++ {
			regionExtra[ch] = make([]int, R)
			gapExtra[ch] = make([][]int, R)
			for g := range col.gaps {
				gapExtra[ch][g] = make([]int, len(col.gaps[g]))
			}
		}
		for _, c := range claims {
			ch := p.HomeOf(c.line)
			regionExtra[ch][c.h]++
			for j := 0; j <= c.i; j++ {
				gapExtra[ch][c.h+1][j]++
			}
		}
		for ch := 0; ch < chips; ch++ {
			peak, where := 0, -1
			for r := 0; r < R; r++ {
				if v := resAfter[ch][r] + regionExtra[ch][r]; v > peak {
					peak, where = v, r
				}
				for j := range col.gaps[r] {
					if v := posRes[ch][r][j] + gapExtra[ch][r][j]; v > peak {
						peak, where = v, r
					}
				}
			}
			if peak > sharedCap {
				report(Finding{Kind: PlanFootprint, Level: LevelShared, Op: -1, Region: where, Core: -1, Chip: ch,
					Detail: fmt.Sprintf("overlapped residency of %d blocks exceeds the shared capacity %d", peak, sharedCap)})
			}
		}
	}
	return fs
}

// unresolved reports every line ID in plan's lists that its line table
// does not resolve.
func unresolved(plan *schedule.PipelinePlan) []Finding {
	var fs []Finding
	check := func(r int, id schedule.LineID) {
		if uint64(id) >= uint64(len(plan.Lines)) {
			fs = append(fs, Finding{Kind: PlanMismatch, Level: LevelShared, Op: -1, Region: r, Core: -1, Chip: -1,
				Detail: fmt.Sprintf("line ID %d outside the plan's %d-line table", id, len(plan.Lines))})
		}
	}
	for r, reg := range plan.Regions {
		for _, id := range reg.Prefetch {
			check(r, id)
		}
		for _, op := range reg.Barrier {
			check(r, op.Line)
		}
		for _, id := range reg.Retire {
			check(r, id)
		}
	}
	for _, op := range plan.Tail {
		check(-1, op.Line)
	}
	return fs
}

// gapOp is one shared staging op of a gap, with its global op index.
type gapOp struct {
	line    schedule.Line
	unstage bool
	op      int
}

// is reports whether o stages (or, with unstage, unstages) line l.
func (o gapOp) is(l schedule.Line, unstage bool) bool { return o.line == l && o.unstage == unstage }

// planCollector re-derives the planner's view of the program — gaps of
// shared ops split at regions that carry work, and each region's
// shared-slot touch set — with global op indices attached and without
// the planner's panics, so junk programs yield findings, not faults.
type planCollector struct {
	p     *schedule.Program
	op    int
	gaps  [][]gapOp
	cur   []gapOp
	touch []map[schedule.Line]struct{}
}

func newPlanCollector(p *schedule.Program) *planCollector {
	return &planCollector{p: p}
}

var _ schedule.Backend = (*planCollector)(nil)

func (pc *planCollector) StageShared(l schedule.Line) {
	pc.cur = append(pc.cur, gapOp{line: l, op: pc.op})
	pc.op++
}

func (pc *planCollector) UnstageShared(l schedule.Line) {
	pc.cur = append(pc.cur, gapOp{line: l, unstage: true, op: pc.op})
	pc.op++
}

func (pc *planCollector) Parallel(body func(core int, ops schedule.CoreSink)) {
	touch := make(map[schedule.Line]struct{})
	work := false
	for c := 0; c < pc.p.Cores; c++ {
		s := &planTouchSink{pc: pc, touch: touch}
		body(c, s)
		work = work || s.ops > 0
	}
	if !work {
		return
	}
	pc.gaps = append(pc.gaps, pc.cur)
	pc.cur = nil
	pc.touch = append(pc.touch, touch)
}

// planTouchSink mirrors the planner's touch accounting: Stage and
// Unstage touch the line's shared slot; Apply only counts as work.
// (Raw Read/Write are probe-only and count as neither, matching the
// planner's region rule.)
type planTouchSink struct {
	pc    *planCollector
	touch map[schedule.Line]struct{}
	ops   int
}

var _ schedule.CoreSink = (*planTouchSink)(nil)

func (s *planTouchSink) Stage(l schedule.Line) {
	s.ops++
	s.touch[l] = struct{}{}
	s.pc.op++
}

func (s *planTouchSink) Unstage(l schedule.Line) {
	s.ops++
	s.touch[l] = struct{}{}
	s.pc.op++
}

func (s *planTouchSink) Read(schedule.Line)  { s.pc.op++ }
func (s *planTouchSink) Write(schedule.Line) { s.pc.op++ }

func (s *planTouchSink) Apply(schedule.Kernel, schedule.Line, ...schedule.Line) {
	s.ops++
	s.pc.op++
}

func (s *planTouchSink) Compute(i, j, k int) {
	s.Apply(schedule.MulAdd, schedule.LineC(i, j), schedule.LineA(i, k), schedule.LineB(k, j))
}
