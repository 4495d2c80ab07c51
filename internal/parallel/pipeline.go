package parallel

import (
	"fmt"
	"time"

	"repro/internal/schedule"
)

// This file runs the memory↔shared stream of the shared-level modes
// from the program's phase plan: schedule.PlanPipelineDepth in
// ModeSharedPipelined, schedule.PlanSerial (every op a barrier op) in
// ModeShared. Both modes replay the same program, the same arenas and
// the same MS/MD streams; only the timing of the shared transfers
// differs.
//
// The program's own emission drives the run, region by region, through
// Executor.Parallel; StageShared and UnstageShared only feed the probe.
// For each region r the driver runs the gap's Barrier ops (the staging
// that must stay on the critical path — this is the run's StageWait),
// hands the region to the workers with Team.Launch, and becomes the
// stager for the duration of the region: it retires the gap's trailing
// write-backs (Retire) and runs the region's Prefetch list — stages for
// gaps up to the plan's lookahead Depth ahead — into spare shared slots
// while the workers compute, then joins the team. After Emit returns,
// the plan's Tail drains the shared level.
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

// phasedRegion runs the current region (ex.region, whose ops the
// per-core scratch holds) under its plan entry.
func (ex *Executor) phasedRegion(plan *schedule.PipelinePlan) {
	r := ex.region
	if r >= len(plan.Regions) {
		// The plan replayed the same immutable program; a mismatch means
		// the program's Body is not deterministic across replays.
		ex.fail(fmt.Errorf("parallel: program %q emitted more parallel regions than the %d its phase plan saw — the schedule body must be deterministic",
			ex.algorithm, len(plan.Regions)))
		return
	}
	reg := &plan.Regions[r]
	start := time.Now()
	err := ex.driverOps(reg.Barrier)
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
		err := ex.replayOps(c, r, ex.ops[c])
		finished[c] = time.Now()
		return err
	})
	// The driver is the stager while the workers compute: retire the
	// current gap's trailing write-backs, then prefetch the next
	// regions' stages into spare slots. A staging error must not
	// short-circuit the join — the workers still hold the region.
	var stageErr error
	for _, l := range reg.Retire {
		if stageErr = ex.unstageShared(l); stageErr != nil {
			break
		}
	}
	if stageErr == nil {
		for _, l := range reg.Prefetch {
			if stageErr = ex.stageShared(l); stageErr != nil {
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

// runTail finishes a planned run after Emit returned: it checks that
// the run emitted every region the plan phased, then runs the plan's
// Tail. Tail ops belong to no region; they report as region
// len(plan.Regions).
func (ex *Executor) runTail(plan *schedule.PipelinePlan) {
	if ex.err != nil {
		return
	}
	if n := ex.region + 1; n != len(plan.Regions) {
		ex.fail(fmt.Errorf("parallel: program %q emitted %d parallel regions, its phase plan saw %d — the schedule body must be deterministic",
			ex.algorithm, n, len(plan.Regions)))
		return
	}
	ex.region = len(plan.Regions)
	start := time.Now()
	ex.fail(ex.driverOps(plan.Tail))
	ex.stageWait += time.Since(start)
}

// driverOps runs a plan's program-order shared ops on the driving
// goroutine, stopping at the first failure.
func (ex *Executor) driverOps(ops []schedule.PipelinedOp) error {
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
