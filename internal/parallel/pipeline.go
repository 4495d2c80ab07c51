package parallel

import (
	"time"

	"repro/internal/schedule"
)

// This file runs the memory↔shared stream of the shared-level modes
// from the program's phase plan: schedule.PlanPipelineDepth in
// ModeSharedPipelined, schedule.PlanSerial (every op a barrier op) in
// ModeShared. Both modes replay the same trace, the same arenas and
// the same MS/MD streams; only the timing of the shared transfers
// differs.
//
// The compiled trace drives the run, region by region, through
// Executor.replay; its driver steps only feed the probe. The plan was
// built from the same trace, so its region list is the trace's
// numbered regions. For each region r the driver runs the gap's Barrier
// ops (the staging that must stay on the critical path — this is the
// run's StageWait), hands the region to the workers with Team.Launch,
// and becomes the stager for the duration of the region: it retires the
// gap's trailing write-backs (Retire) and runs the region's Prefetch
// list — stages for gaps up to the plan's lookahead Depth ahead — into
// spare shared slots while the workers compute, then joins the team.
// After the last region, the plan's Tail drains the shared level. The
// driver runs each list in its line-ID form (BarrierIDs, RetireIDs,
// PrefetchIDs, TailIDs), so its transfers address the same ID-indexed
// shared slots the workers refill from and merge into.
//
// The hand-off protocol is the region epoch itself: every reordered
// operation runs strictly between one Launch and its join, and the plan
// proved at compile time that those operations address only lines the
// running region never touches. Staging on a separate goroutine
// instead would add a channel round-trip per region and — on hosts
// with few hardware threads — starve the stager exactly when the
// workers are busiest, piling its work back onto the critical path; the
// driver is otherwise idle inside the join, so it is the natural
// stager. Shared residency stays deterministic because the driver
// executes arena operations in one fixed order decided entirely at plan
// time. Worker lookups of shared slots and concurrent driver index
// updates are serialised by the SharedArena's internal lock; the tile
// data itself is never contended, because every concurrent pairing
// addresses disjoint lines.

// phasedRegion runs the current region (ex.region, whose per-core op
// slices are cores) under its plan entry reg.
func (ex *Executor) phasedRegion(reg *schedule.PipelineRegion, cores [][]schedule.Op) {
	r := ex.region
	start := time.Now()
	err := ex.driverOps(reg.BarrierIDs)
	ex.stageWait += time.Since(start)
	if err != nil {
		ex.fail(err)
		return
	}

	start = time.Now()
	// Each worker stamps its finish time so the window can be split
	// honestly below: the stamps are per-core slots, ordered against the
	// driver's read by the join. The zero Time of a core whose replay
	// never ran reads as "finished at launch".
	finished := ex.finished
	clear(finished)
	wait := ex.team.Launch(func(c int) error {
		err := ex.replayOps(c, r, cores[c])
		finished[c] = time.Now()
		return err
	})
	// The driver is the stager while the workers compute: retire the
	// current gap's trailing write-backs, then prefetch the next
	// regions' stages into spare slots. A staging error must not
	// short-circuit the join — the workers still hold the region.
	var stageErr error
	for _, id := range reg.RetireIDs {
		if stageErr = ex.unstageShared(id); stageErr != nil {
			break
		}
	}
	if stageErr == nil {
		for _, id := range reg.PrefetchIDs {
			if stageErr = ex.stageShared(id); stageErr != nil {
				break
			}
		}
	}
	err = wait()
	// Split the window at the last worker's finish: everything up to it
	// is compute, anything after is staging that stuck out past the
	// region (or the join's own hand-back) — staging-bound regions must
	// show up as stage wait, not inflate the overlap efficiency.
	window := time.Since(start)
	workerSpan := window
	var lastFinish time.Time
	for _, t := range finished {
		if t.After(lastFinish) {
			lastFinish = t
		}
	}
	if !lastFinish.IsZero() {
		if span := lastFinish.Sub(start); span >= 0 && span < window {
			workerSpan = span
		}
	}
	ex.computeTime += workerSpan
	ex.stageWait += window - workerSpan
	ex.fail(err)
	ex.fail(stageErr)
}

// runTail finishes a planned run after its last region: it runs the
// plan's Tail, which belongs to no region and reports as region
// len(plan.Regions).
func (ex *Executor) runTail(plan *schedule.PipelinePlan) {
	if ex.err != nil {
		return
	}
	ex.region = len(plan.Regions)
	start := time.Now()
	ex.fail(ex.driverOps(plan.TailIDs))
	ex.stageWait += time.Since(start)
}

// driverOps runs a plan's program-order shared ops on the driving
// goroutine, stopping at the first failure.
func (ex *Executor) driverOps(ops []schedule.SharedOp) error {
	for _, op := range ops {
		var err error
		if op.Unstage {
			err = ex.unstageShared(op.Line)
		} else {
			err = ex.stageShared(op.Line)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
