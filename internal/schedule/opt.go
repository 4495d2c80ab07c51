package schedule

// This file is the residency-aware schedule optimizer: a liveness pass
// over the program's trace (see Lower) that elides restaging the
// machine never needed. The paper's cost model charges every block
// crossing the MS (memory↔shared) and MD (shared↔core) streams;
// emitters, written as per-region loop nests, routinely unstage a line
// only to restage the same line a few regions later. With exact
// per-chip capacity accounting (CheckCapacity) the pass can prove,
// point by point along the program, that keeping such a line resident
// never exceeds the declared cache — so the elision is free
// capacity-wise and strictly cheaper traffic-wise.
//
// Three rewrites, all elisions (the pass never adds or reorders ops):
//
//  a. shared keep-resident: an UnstageShared(l) whose next event on l
//     is a StageShared(l), with no reference to l in between, is
//     dropped together with that restage when the line's home chip has
//     a free slot across the whole gap;
//  b. core refill elision: a core's Unstage(l) followed by its own
//     re-Stage(l) is dropped when the upstream copy provably cannot
//     have changed in between (no surviving driver op on l, no other
//     core writing — or, for a dirty hold, touching — the line);
//  c. dirty writebacks sink to the final unstage for free: eliding an
//     intermediate unstage leaves the arena slot resident and dirty,
//     so the one writeback happens at the surviving last unstage.
//
// The capacity proof is a profile per cache: each chip's shared
// residency before every trace step, and each core's residency before
// every op of its stream. An elision keeps its line resident over a
// window of that profile, so it fits when every point of the window
// stays below the declared capacity, and committing it adds one over
// the window. Candidates commit greedily in a fixed order — the shared
// pass in unstage-step order, the core pass core by core and then by
// (Matrix, Row, Col) — each checked against what earlier commits
// already keep resident. The profile is bucketed (see rangeMax): a
// check stops at the first point or whole bucket already at capacity,
// so a window that does not fit costs about the distance to that
// bucket, and one that fits, like booking one, about its length over
// the bucket size. All per-line state is indexed by the trace's line
// IDs; the per-line lists the passes search (a line's shared events,
// its region uses and each core's stage events on it) are counted
// first and then filled in place, each kind cut from one exactly sized
// array.
//
// The pass is conservative by construction — any stream it cannot
// prove well-formed (the verifier's linear-staging, def-before-use and
// residency rules, re-derived here) is returned unchanged — and it is
// not trusted: Optimize re-measures the rewritten program and fails
// loudly if the footprint violates CheckCapacity or the op accounting
// does not balance. The optimized program carries the compacted trace:
// only the surviving ops, in slices sized to their contents. The test
// suites additionally pin every optimized program to its baseline
// bitwise through the simulator and the real executor.

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// OptimizeOptions is Optimize's option set. It has no fields: both
// elision passes always run. The type keeps Optimize's signature, which
// callers such as the repository benchmark compile against.
type OptimizeOptions struct{}

// OptimizeCounts is the stage/writeback ledger of one cache level (or
// one chip's slice of it): every baseline operation is either elided
// or kept, so BaselineStages == ElidedStages + KeptStages and likewise
// for writebacks — an identity Optimize itself enforces.
type OptimizeCounts struct {
	BaselineStages     uint64 // fills the unoptimized program performs
	ElidedStages       uint64 // fills the pass removed
	KeptStages         uint64 // fills the optimized program performs
	BaselineWriteBacks uint64 // dirty writebacks of the unoptimized program
	ElidedWriteBacks   uint64 // writebacks removed (sunk into a later one)
	KeptWriteBacks     uint64 // writebacks the optimized program performs
}

func (c *OptimizeCounts) add(d OptimizeCounts) {
	c.BaselineStages += d.BaselineStages
	c.ElidedStages += d.ElidedStages
	c.KeptStages += d.KeptStages
	c.BaselineWriteBacks += d.BaselineWriteBacks
	c.ElidedWriteBacks += d.ElidedWriteBacks
	c.KeptWriteBacks += d.KeptWriteBacks
}

// OptimizeReport accounts for what the pass did. When SkipReason is
// non-empty the program was returned unchanged without analysis
// (demand-driven, malformed, or failing the pass's well-formedness
// scan) and every count is zero; when it is empty the counts are the
// full ledger whether or not anything was elided.
type OptimizeReport struct {
	Shared OptimizeCounts // memory↔shared (MS) level, all chips
	Core   OptimizeCounts // shared↔core (MD) level, all chips

	// SharedPerChip slices the MS ledger by the line's home chip,
	// CorePerChip slices the MD ledger by the staging core's chip; both
	// have the program's declared chip count (1 when undeclared).
	SharedPerChip []OptimizeCounts
	CorePerChip   []OptimizeCounts

	// Changed reports whether Optimize returned a rewritten program;
	// false means the original pointer came back (nothing elidable, or
	// SkipReason explains why analysis never ran).
	Changed bool
	// SkipReason is why the program was left untouched without
	// analysis; empty when the pass ran to completion.
	SkipReason string
}

// TotalElided is the number of staging operations removed at both
// levels — a quick "did it do anything" signal for logs and lints.
func (r OptimizeReport) TotalElided() uint64 {
	return r.Shared.ElidedStages + r.Core.ElidedStages
}

// optDrops marks the ops the passes elide: driver steps by step index,
// core ops by step, core and op index (a step's marks are allocated on
// its first core drop).
type optDrops struct {
	driver []bool
	core   [][][]bool
}

func (d *optDrops) dropCore(t *Trace, step, core, op int) {
	if d.core[step] == nil {
		d.core[step] = make([][]bool, len(t.Steps[step].Cores))
	}
	if d.core[step][core] == nil {
		d.core[step][core] = make([]bool, len(t.Steps[step].Cores[core]))
	}
	d.core[step][core][op] = true
}

// coreDropped reports whether the pass elided op of core in step; a nil
// receiver marks nothing (the baseline).
func (d *optDrops) coreDropped(step, core, op int) bool {
	return d != nil && d.core[step] != nil && d.core[step][core] != nil && d.core[step][core][op]
}

// analysis ------------------------------------------------------------

const (
	optUseRead uint8 = 1 << iota
	optUseWrite
)

// optUse is one region-level reference to a line: which trace step,
// which core, read or write. Uses are the blocker index of both passes
// — a shared gap may not contain any, and a core-reuse window may not
// contain a conflicting one from another core.
type optUse struct {
	step  int32
	core  int32
	flags uint8
}

// optCoreEvent is one Stage/Unstage of a line by one core, in 16 bytes:
// its position in that core's flattened op stream (for the capacity
// profile), the step and op index (for drop marking), and — for
// unstages — whether the hold being closed was dirty.
type optCoreEvent struct {
	pos   int32
	step  int32
	opIdx int32
	stage bool
	dirty bool
}

// Residency states of a line in the cache models of optAnalyze and
// optModel.
const (
	optAbsent int8 = iota
	optClean
	optDirty
)

type optAnalysis struct {
	chips      int
	sharedProg bool
	coreProg   bool

	// resBefore[chip][step] is the baseline shared residency of that
	// chip immediately before the trace step executes;
	// coreResBefore[core][pos] likewise for one core's flattened
	// stream. The passes prove capacity pointwise against these
	// profiles plus their own committed extras, and take them over.
	resBefore     [][]int
	coreResBefore [][]int

	sharedPeak []int
	corePeak   int
	computes   uint64

	// Per-line indexes, by line ID: the driver steps of a line's
	// shared events (alternating stage/unstage), its region uses, and —
	// per core — its core events. Each kind of list shares one backing
	// array (optLists).
	sharedEvents [][]int
	lineUses     [][]optUse
	coreEvents   [][][]optCoreEvent // [core][line]

	sharedStages   []uint64 // per home chip
	sharedUnstages []uint64
	coreStages     []uint64 // per staging core's chip
	coreUnstages   []uint64
}

// optAnalyze scans the trace once, building the blocker and capacity
// indexes while re-deriving the verifier's well-formedness
// rules. Any violation returns a reason and the pass gives up: only
// streams proven linear (alternating stage/unstage per line and level,
// no leaks, no use of an unstaged line, no unstage of a held line, no
// stage of a line another core holds dirty) are ever rewritten.
func optAnalyze(p *Program, tr *Trace) (*optAnalysis, string) {
	chips := p.Resources.ChipCount()
	n := len(tr.Lines)
	a := &optAnalysis{
		chips:          chips,
		resBefore:      make([][]int, chips),
		coreResBefore:  make([][]int, p.Cores),
		sharedPeak:     make([]int, chips),
		coreEvents:     make([][][]optCoreEvent, p.Cores),
		sharedStages:   make([]uint64, chips),
		sharedUnstages: make([]uint64, chips),
		coreStages:     make([]uint64, chips),
		coreUnstages:   make([]uint64, chips),
	}
	for ch := range a.resBefore {
		a.resBefore[ch] = make([]int, len(tr.Steps))
	}

	// Count every per-line list first, so each is cut from one exactly
	// sized backing array. Uses are counted as addUse merges them: all
	// of one core's uses of a line in one step are one use.
	opsPerCore := make([]int, p.Cores)
	nShared := make([]int, n)
	nUses := make([]int, n)
	nCore := make([]int, p.Cores*n) // by core, then line
	lastUse := make([]int, n)       // the (step, core) block that last used the line, numbered from 1
	block := 0
	for i := range tr.Steps {
		step := &tr.Steps[i]
		if step.Cores == nil {
			a.sharedProg = true
			nShared[step.Shared.Line]++
			continue
		}
		for c, ops := range step.Cores {
			opsPerCore[c] += len(ops)
			block++
			for j := range ops {
				op := &ops[j]
				if op.Kind == OpStage || op.Kind == OpUnstage {
					a.coreProg = true
					nCore[c*n+int(op.Line)]++
				}
				if op.Kind == OpApply {
					for _, src := range op.Sources() {
						if lastUse[src] != block {
							lastUse[src] = block
							nUses[src]++
						}
					}
				}
				if lastUse[op.Line] != block {
					lastUse[op.Line] = block
					nUses[op.Line]++
				}
			}
		}
	}
	if len(tr.Steps) > math.MaxInt32 || slices.Max(opsPerCore) > math.MaxInt32 {
		return nil, "trace too long for the pass's 32-bit step and op positions"
	}
	a.sharedEvents = optLists[int](nShared)
	a.lineUses = optLists[optUse](nUses)
	coreEvents := optLists[optCoreEvent](nCore)
	for c := range a.coreResBefore {
		a.coreResBefore[c] = make([]int, 0, opsPerCore[c])
		a.coreEvents[c] = coreEvents[c*n : (c+1)*n]
	}

	addUse := func(step, core int, l LineID, flags uint8) {
		us := a.lineUses[l]
		if k := len(us); k > 0 && us[k-1].step == int32(step) && us[k-1].core == int32(core) {
			us[k-1].flags |= flags
			return
		}
		a.lineUses[l] = append(us, optUse{step: int32(step), core: int32(core), flags: flags})
	}

	sharedRes := make([]bool, n)
	res := make([]int, chips)
	holders := make([]int, n) // cores holding the line
	dirtyBy := make([]int, n) // core holding the line dirty, or -1
	for i := range dirtyBy {
		dirtyBy[i] = -1
	}
	resident := make([][]int8, p.Cores) // per core and line: optAbsent, optClean or optDirty
	residentN := make([]int, p.Cores)
	for c := range resident {
		resident[c] = make([]int8, n)
	}

	for t := range tr.Steps {
		step := &tr.Steps[t]
		for ch := 0; ch < chips; ch++ {
			a.resBefore[ch][t] = res[ch]
		}
		if step.Cores == nil {
			d := step.Shared
			ch := tr.Homes[d.Line]
			if !d.Unstage {
				if sharedRes[d.Line] {
					return nil, fmt.Sprintf("shared double stage of %v", tr.Lines[d.Line])
				}
				sharedRes[d.Line] = true
				res[ch]++
				if res[ch] > a.sharedPeak[ch] {
					a.sharedPeak[ch] = res[ch]
				}
				a.sharedStages[ch]++
			} else {
				if !sharedRes[d.Line] {
					return nil, fmt.Sprintf("shared unstage of non-resident %v", tr.Lines[d.Line])
				}
				if holders[d.Line] > 0 {
					return nil, fmt.Sprintf("shared unstage of %v while a core holds it", tr.Lines[d.Line])
				}
				sharedRes[d.Line] = false
				res[ch]--
				a.sharedUnstages[ch]++
			}
			a.sharedEvents[d.Line] = append(a.sharedEvents[d.Line], t)
			continue
		}
		for c := range step.Cores {
			st := resident[c]
			chip := p.ChipOfCore(c)
			for oi := range step.Cores[c] {
				op := &step.Cores[c][oi]
				pos := len(a.coreResBefore[c])
				a.coreResBefore[c] = append(a.coreResBefore[c], residentN[c])
				switch op.Kind {
				case OpStage:
					if st[op.Line] != optAbsent {
						return nil, fmt.Sprintf("core %d double stage of %v", c, tr.Lines[op.Line])
					}
					if a.sharedProg && !sharedRes[op.Line] {
						return nil, fmt.Sprintf("core %d stage of %v while not shared-resident", c, tr.Lines[op.Line])
					}
					if d := dirtyBy[op.Line]; d >= 0 && d != c {
						return nil, fmt.Sprintf("core %d stage of %v held dirty by core %d", c, tr.Lines[op.Line], d)
					}
					st[op.Line] = optClean
					residentN[c]++
					if residentN[c] > a.corePeak {
						a.corePeak = residentN[c]
					}
					holders[op.Line]++
					a.coreStages[chip]++
					a.coreEvents[c][op.Line] = append(a.coreEvents[c][op.Line],
						optCoreEvent{pos: int32(pos), step: int32(t), opIdx: int32(oi), stage: true})
					addUse(t, c, op.Line, optUseRead)
				case OpUnstage:
					state := st[op.Line]
					if state == optAbsent {
						return nil, fmt.Sprintf("core %d unstage of non-resident %v", c, tr.Lines[op.Line])
					}
					dirty := state == optDirty
					st[op.Line] = optAbsent
					residentN[c]--
					holders[op.Line]--
					if dirtyBy[op.Line] == c && dirty {
						dirtyBy[op.Line] = -1
					}
					a.coreUnstages[chip]++
					a.coreEvents[c][op.Line] = append(a.coreEvents[c][op.Line],
						optCoreEvent{pos: int32(pos), step: int32(t), opIdx: int32(oi), stage: false, dirty: dirty})
					if dirty {
						addUse(t, c, op.Line, optUseWrite)
					} else {
						addUse(t, c, op.Line, optUseRead)
					}
				case OpRead:
					addUse(t, c, op.Line, optUseRead)
				case OpWrite:
					addUse(t, c, op.Line, optUseWrite)
				case OpApply:
					if a.coreProg {
						if st[op.Line] == optAbsent {
							return nil, fmt.Sprintf("core %d applies %v to unstaged %v", c, op.Kernel, tr.Lines[op.Line])
						}
						for _, src := range op.Sources() {
							if st[src] == optAbsent {
								return nil, fmt.Sprintf("core %d applies %v reading unstaged %v", c, op.Kernel, tr.Lines[src])
							}
						}
						st[op.Line] = optDirty
						dirtyBy[op.Line] = c
					} else if a.sharedProg {
						if !sharedRes[op.Line] {
							return nil, fmt.Sprintf("core %d applies %v to non-shared-resident %v", c, op.Kernel, tr.Lines[op.Line])
						}
						for _, src := range op.Sources() {
							if !sharedRes[src] {
								return nil, fmt.Sprintf("core %d applies %v reading non-shared-resident %v", c, op.Kernel, tr.Lines[src])
							}
						}
					}
					a.computes++
					for _, src := range op.Sources() {
						addUse(t, c, src, optUseRead)
					}
					addUse(t, c, op.Line, optUseWrite)
				}
			}
		}
	}
	leaked := 0
	for _, k := range res {
		leaked += k
	}
	if leaked > 0 {
		return nil, fmt.Sprintf("%d shared lines leaked at exit", leaked)
	}
	for c, k := range residentN {
		if k > 0 {
			return nil, fmt.Sprintf("core %d leaks %d staged lines at exit", c, k)
		}
	}
	return a, ""
}

// optLists returns one empty list per count, each with exactly that
// capacity, all cut from one backing array: appending up to the count
// fills the list in place.
func optLists[T any](counts []int) [][]T {
	total := 0
	for _, k := range counts {
		total += k
	}
	backing := make([]T, total)
	lists := make([][]T, len(counts))
	off := 0
	for i, k := range counts {
		lists[i] = backing[off : off : off+k]
		off += k
	}
	return lists
}

// workingSet assembles the baseline footprint the scan measured, in the
// shape CheckCapacity expects.
func (a *optAnalysis) workingSet() WorkingSet {
	ws := WorkingSet{
		CorePeak:          a.corePeak,
		Computes:          a.computes,
		SharedPeakPerChip: a.sharedPeak,
	}
	for ch := 0; ch < a.chips; ch++ {
		if a.sharedPeak[ch] > ws.SharedPeak {
			ws.SharedPeak = a.sharedPeak[ch]
		}
		ws.SharedStages += a.sharedStages[ch]
		ws.SharedUnstages += a.sharedUnstages[ch]
		ws.Stages += a.coreStages[ch]
		ws.Unstages += a.coreUnstages[ch]
	}
	return ws
}

// passes --------------------------------------------------------------

// optSharedPass commits pass (a): for every UnstageShared(l) whose next
// event on l is a StageShared(l) with no region reference to l in the
// gap, drop the pair when l's home chip has a free slot at every point
// of the gap. Candidates commit greedily in program order; each commit
// raises the chip's residency profile over its span so later candidates
// are checked against what has already been kept resident. Returns the
// elided pair count per home chip.
func optSharedPass(p *Program, tr *Trace, a *optAnalysis, d *optDrops) []uint64 {
	elided := make([]uint64, a.chips)
	cs := p.Resources.SharedBlocks
	if cs <= 0 {
		return elided
	}
	// The chip's profile over the steps: baseline residency before each
	// step plus the lines commits keep resident there.
	prof := make([]*rangeMax, a.chips)
	for ch := range prof {
		prof[ch] = newRangeMax(a.resBefore[ch])
	}
	// Walk the driver steps in order, keeping a cursor into each line's
	// events: the candidates come in unstage-step order without a sort.
	// Events alternate stage/unstage starting with a stage, so each
	// unstage pairs with the event after it, when there is one.
	next := make([]int32, len(tr.Lines)) // per line: the index of its next event
	for u := range tr.Steps {
		st := &tr.Steps[u]
		if st.Cores != nil {
			continue
		}
		l := st.Shared.Line
		next[l]++
		evts := a.sharedEvents[l]
		if !st.Shared.Unstage || int(next[l]) == len(evts) {
			continue
		}
		s := evts[next[l]]
		us := a.lineUses[l]
		i := sort.Search(len(us), func(i int) bool { return int(us[i].step) > u })
		if i < len(us) && int(us[i].step) < s {
			continue // the gap references l: the unstage is live
		}
		rm := prof[tr.Homes[l]]
		if !rm.fits(u+1, s, cs) {
			continue
		}
		d.driver[u] = true
		d.driver[s] = true
		rm.inc(u+1, s)
		elided[tr.Homes[l]]++
	}
	return elided
}

// optCorePass commits pass (b): a core's Unstage(l)→Stage(l) pair is
// dropped when the upstream copy provably cannot differ from the copy
// the core kept. For a clean hold that means no other core writes l
// from the moment this hold was opened through the restage (the kept
// copy must match what the baseline restage would have read). For a
// dirty hold the elision defers the merge to the chain's last
// surviving unstage, so no other core may touch l at all until the
// chain ends — and dirtiness carries forward across elided pairs,
// since the physical arena slot stays dirty. A surviving driver op on
// l inside the gap always blocks (the extended hold would overlap the
// shared-level unstage). Capacity is proven against the core's own
// residency profile, like the shared pass. Chains commit core by core,
// and within a core in (Matrix, Row, Col) order of their line. Returns
// elided pairs per staging core's chip.
func optCorePass(p *Program, tr *Trace, a *optAnalysis, d *optDrops) []uint64 {
	elided := make([]uint64, a.chips)
	cd := p.Resources.CoreBlocks
	if cd <= 0 {
		return elided
	}
	byLine := make([]LineID, len(tr.Lines))
	for i := range byLine {
		byLine[i] = LineID(i)
	}
	slices.SortFunc(byLine, func(x, y LineID) int {
		lx, ly := tr.Lines[x], tr.Lines[y]
		return cmp.Or(cmp.Compare(lx.Matrix, ly.Matrix), cmp.Compare(lx.Row, ly.Row), cmp.Compare(lx.Col, ly.Col))
	})
	for core, events := range a.coreEvents {
		var prof *rangeMax // the core's residency profile plus committed extras, built on first use
		for _, l := range byLine {
			evts := events[l]
			if len(evts) == 0 {
				continue
			}
			last := int(evts[len(evts)-1].step) // the chain's final unstage, never dropped
			carry := false                      // an elided merge is still pending
			for i := 1; i+1 < len(evts); i += 2 {
				open, u, s := evts[i-1], evts[i], evts[i+1]
				effDirty := u.dirty || carry
				blocked := false
				ds := a.sharedEvents[l]
				for di := sort.SearchInts(ds, int(u.step)+1); di < len(ds) && ds[di] < int(s.step); di++ {
					if !d.driver[ds[di]] {
						blocked = true
						break
					}
				}
				if !blocked {
					lo, hi, any := int(u.step), last, true
					if !effDirty {
						lo, hi, any = int(open.step), int(s.step), false
					}
					us := a.lineUses[l]
					ui := sort.Search(len(us), func(i int) bool { return int(us[i].step) >= lo })
					for ; ui < len(us) && int(us[ui].step) <= hi; ui++ {
						if int(us[ui].core) == core {
							continue
						}
						if any || us[ui].flags&optUseWrite != 0 {
							blocked = true
							break
						}
					}
				}
				if !blocked {
					if prof == nil {
						prof = newRangeMax(a.coreResBefore[core])
					}
					blocked = !prof.fits(int(u.pos)+1, int(s.pos), cd)
				}
				if blocked {
					// The unstage survives; a pending merge lands here
					// (the arena slot is still physically dirty).
					carry = false
					continue
				}
				d.dropCore(tr, int(u.step), core, int(u.opIdx))
				d.dropCore(tr, int(s.step), core, int(s.opIdx))
				prof.inc(int(u.pos)+1, int(s.pos))
				elided[p.ChipOfCore(core)]++
				carry = effDirty
			}
		}
	}
	return elided
}

// traffic model -------------------------------------------------------

type optModelCounts struct {
	msStage, msWB []uint64 // per home chip
	mdStage, mdWB []uint64 // per staging core's chip
}

// optModel replays the trace through a dirty-tracking residency model
// and counts fills and dirty writebacks at both levels, skipping the
// ops d marks (nil: none). Running it twice — baseline and optimized —
// yields the report's writeback ledger and an independent check on the
// stage ledger.
func optModel(p *Program, tr *Trace, a *optAnalysis, d *optDrops) optModelCounts {
	m := optModelCounts{
		msStage: make([]uint64, a.chips),
		msWB:    make([]uint64, a.chips),
		mdStage: make([]uint64, a.chips),
		mdWB:    make([]uint64, a.chips),
	}
	n := len(tr.Lines)
	sharedRes := make([]int8, n) // optAbsent, optClean or optDirty
	coreRes := make([][]int8, p.Cores)
	// dirty marks l's shared copy dirty when it is resident.
	dirty := func(l LineID) {
		if sharedRes[l] != optAbsent {
			sharedRes[l] = optDirty
		}
	}
	for t := range tr.Steps {
		st := &tr.Steps[t]
		if st.Cores == nil {
			if d != nil && d.driver[t] {
				continue
			}
			l := st.Shared.Line
			ch := tr.Homes[l]
			if !st.Shared.Unstage {
				m.msStage[ch]++
				sharedRes[l] = optClean
			} else {
				if sharedRes[l] == optDirty {
					m.msWB[ch]++
				}
				sharedRes[l] = optAbsent
			}
			continue
		}
		for c := range st.Cores {
			chip := p.ChipOfCore(c)
			for oi := range st.Cores[c] {
				if d.coreDropped(t, c, oi) {
					continue
				}
				op := &st.Cores[c][oi]
				switch op.Kind {
				case OpStage:
					if coreRes[c] == nil {
						coreRes[c] = make([]int8, n)
					}
					m.mdStage[chip]++
					coreRes[c][op.Line] = optClean
				case OpUnstage:
					if coreRes[c] != nil {
						if coreRes[c][op.Line] == optDirty {
							m.mdWB[chip]++
							dirty(op.Line)
						}
						coreRes[c][op.Line] = optAbsent
					}
				case OpWrite:
					if !a.coreProg {
						dirty(op.Line)
					}
				case OpApply:
					if !a.coreProg {
						dirty(op.Line)
					} else if coreRes[c] != nil && coreRes[c][op.Line] != optAbsent {
						coreRes[c][op.Line] = optDirty
					}
				}
			}
		}
	}
	return m
}

// compaction -----------------------------------------------------------

// optCompact returns tr without the ops d marks. Regions left with no op
// at all are dropped (an empty region is a pure barrier — removing it
// shrinks the pipelined critical path and changes no core's stream),
// and the regions that still carry work are renumbered.
func optCompact(tr *Trace, d *optDrops) *Trace {
	out := &Trace{Lines: tr.Lines, Homes: tr.Homes}
	for t, st := range tr.Steps {
		if st.Cores == nil {
			if !d.driver[t] {
				out.Steps = append(out.Steps, st)
			}
		} else if cores := d.keep(t, st.Cores); cores != nil {
			out.addRegion(cores)
		}
	}
	out.Steps = slices.Clone(out.Steps)
	return out
}

// keep returns region step t's per-core ops without the marked ones,
// or nil when none survive. A region without marks is returned as is;
// the survivors of any other share one allocation sized to them.
func (d *optDrops) keep(t int, cores [][]Op) [][]Op {
	n := 0
	for c := range cores {
		for i := range cores[c] {
			if !d.coreDropped(t, c, i) {
				n++
			}
		}
	}
	switch {
	case n == 0:
		return nil
	case d.core[t] == nil:
		return cores
	}
	ops := make([]Op, 0, n)
	out := make([][]Op, len(cores))
	for c := range cores {
		start := len(ops)
		for i := range cores[c] {
			if !d.coreDropped(t, c, i) {
				ops = append(ops, cores[c][i])
			}
		}
		out[c] = ops[start:len(ops):len(ops)]
	}
	return out
}

// Optimize ------------------------------------------------------------

// Optimize lowers p (or reads the trace p carries), proves the stream
// well-formed, and elides restaging the declared machine never needed:
// shared lines kept resident across region gaps when their home chip
// has the headroom, core refills of provably unchanged upstream copies,
// and — as a consequence — intermediate dirty writebacks, which sink to
// each line's final unstage. The returned program carries the compacted
// trace, and its Body replays it: the identical computation with MS/MD
// traffic less than or equal to the baseline's, operation by operation.
//
// Programs the pass cannot analyse (demand-driven, no body, streams
// Lower rejects, verifier-violating streams, capacity already exceeded)
// come back unchanged — the original pointer — with the report's
// SkipReason set and no error, as do programs with nothing to elide
// (without a SkipReason): Optimize is safe to call on anything. An error is
// returned only when the pass's own output fails its re-measurement
// (a bug in the pass, never a property of the input), in which case
// the returned program is nil.
func Optimize(p *Program, _ OptimizeOptions) (*Program, OptimizeReport, error) {
	var rep OptimizeReport
	if p == nil {
		return nil, rep, fmt.Errorf("schedule: Optimize of nil program")
	}
	skip := func(reason string) (*Program, OptimizeReport, error) {
		rep.SkipReason = reason
		return p, rep, nil
	}
	if p.Body == nil {
		return skip("program has no body")
	}
	if p.DemandDriven {
		return skip("demand-driven program: no staging discipline to optimize")
	}
	if p.Cores < 1 {
		return skip("program declares no cores")
	}
	chips := p.Resources.ChipCount()
	if chips > 1 && p.Cores%chips != 0 {
		return skip(fmt.Sprintf("%d cores not divisible over %d chips", p.Cores, chips))
	}

	tr, err := p.Lower()
	if err != nil {
		return skip(err.Error())
	}
	a, reason := optAnalyze(p, tr)
	if reason != "" {
		return skip(reason)
	}
	if issues := CheckCapacity(a.workingSet(), p.Resources); len(issues) > 0 {
		return skip("baseline exceeds its declared capacities")
	}

	drops := &optDrops{driver: make([]bool, len(tr.Steps)), core: make([][][]bool, len(tr.Steps))}
	elidedShared := optSharedPass(p, tr, a, drops)
	elidedCore := optCorePass(p, tr, a, drops)

	base := optModel(p, tr, a, nil)
	after := optModel(p, tr, a, drops)
	rep.SharedPerChip = make([]OptimizeCounts, chips)
	rep.CorePerChip = make([]OptimizeCounts, chips)
	var totalElided uint64
	for ch := 0; ch < chips; ch++ {
		sc := &rep.SharedPerChip[ch]
		sc.BaselineStages = a.sharedStages[ch]
		sc.ElidedStages = elidedShared[ch]
		sc.KeptStages = after.msStage[ch]
		sc.BaselineWriteBacks = base.msWB[ch]
		sc.KeptWriteBacks = after.msWB[ch]
		if base.msStage[ch] != sc.BaselineStages ||
			sc.KeptStages+sc.ElidedStages != sc.BaselineStages ||
			sc.KeptWriteBacks > sc.BaselineWriteBacks {
			return nil, rep, fmt.Errorf("schedule: Optimize shared ledger does not balance on chip %d: baseline %d stages (model %d), elided %d, kept %d; writebacks %d→%d",
				ch, sc.BaselineStages, base.msStage[ch], sc.ElidedStages, sc.KeptStages, sc.BaselineWriteBacks, sc.KeptWriteBacks)
		}
		sc.ElidedWriteBacks = sc.BaselineWriteBacks - sc.KeptWriteBacks
		rep.Shared.add(*sc)

		cc := &rep.CorePerChip[ch]
		cc.BaselineStages = a.coreStages[ch]
		cc.ElidedStages = elidedCore[ch]
		cc.KeptStages = after.mdStage[ch]
		cc.BaselineWriteBacks = base.mdWB[ch]
		cc.KeptWriteBacks = after.mdWB[ch]
		if base.mdStage[ch] != cc.BaselineStages ||
			cc.KeptStages+cc.ElidedStages != cc.BaselineStages ||
			cc.KeptWriteBacks > cc.BaselineWriteBacks {
			return nil, rep, fmt.Errorf("schedule: Optimize core ledger does not balance on chip %d: baseline %d stages (model %d), elided %d, kept %d; writebacks %d→%d",
				ch, cc.BaselineStages, base.mdStage[ch], cc.ElidedStages, cc.KeptStages, cc.BaselineWriteBacks, cc.KeptWriteBacks)
		}
		cc.ElidedWriteBacks = cc.BaselineWriteBacks - cc.KeptWriteBacks
		rep.Core.add(*cc)

		totalElided += elidedShared[ch] + elidedCore[ch]
	}
	if totalElided == 0 {
		return p, rep, nil
	}

	// Only the compute count of the analysis is needed from here on, so
	// its lists and profiles are garbage before the compacted trace and
	// its re-measurement are allocated.
	computes := a.computes
	q := p.withTrace(optCompact(tr, drops))
	ws, err := Measure(q)
	if err != nil {
		return nil, rep, fmt.Errorf("schedule: optimized program does not measure: %w", err)
	}
	if ws.SharedStages != rep.Shared.KeptStages ||
		ws.Stages != rep.Core.KeptStages ||
		ws.SharedUnstages != rep.Shared.BaselineStages-rep.Shared.ElidedStages ||
		ws.Unstages != rep.Core.BaselineStages-rep.Core.ElidedStages ||
		ws.Computes != computes {
		return nil, rep, fmt.Errorf("schedule: optimized program replays a different stream: measured %d/%d stages, %d/%d unstages, %d computes; ledger kept %d/%d, computes %d",
			ws.SharedStages, ws.Stages, ws.SharedUnstages, ws.Unstages, ws.Computes,
			rep.Shared.KeptStages, rep.Core.KeptStages, computes)
	}
	if issues := CheckCapacity(ws, p.Resources); len(issues) > 0 {
		return nil, rep, fmt.Errorf("schedule: optimized program violates capacity it was proven against: %+v", issues[0])
	}
	rep.Changed = true
	return q, rep, nil
}
