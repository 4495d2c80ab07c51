// Package execcli is what the executor commands, cmd/gemm and
// cmd/lufact, share: benchmark mode's warning about single-run flags,
// its fastest-of-reps sampling, record fill, console lines and ratio
// summaries, and chaos mode's fault-then-recover protocol. Each command
// keeps its flags, the program and executor it builds, what one timed
// repetition does and how a recovered run is checked.
package execcli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/faultinject"
	"repro/internal/parallel"
	"repro/internal/report"
	"repro/internal/schedule"
)

// WarnIgnored prints one warning for each flag in single that the
// command line set: benchmark mode ignores flags that configure a
// single run. grid says which flags set the measured grid instead.
func WarnIgnored(fs *flag.FlagSet, stderr io.Writer, grid string, single ...string) {
	fs.Visit(func(f *flag.Flag) {
		if slices.Contains(single, f.Name) {
			fmt.Fprintf(stderr, "%s: -%s is ignored in benchmark mode (it configures a single run; %s)\n", fs.Name(), f.Name, grid)
		}
	})
}

// Sample is one timed repetition: its wall-clock time and what the
// executor measured in it (zero for a sequential baseline).
type Sample struct {
	Elapsed   time.Duration
	Traffic   parallel.Traffic
	StageWait time.Duration
	Compute   time.Duration
}

// Fastest runs rep once untimed as a warm-up, then reps times (at
// least once), and returns the fastest timed sample: the
// minimum-wall-time estimator, the least sensitive to scheduler noise
// on a shared machine. The warm-up takes the compile out of the timed
// reps: a gemm cell's executor and an LU cell's team compile on their
// first call, so every timed rep is a replay. The traffic counts are
// the same in every repetition; the overlap split comes from the
// fastest one.
func Fastest(reps int, rep func() (Sample, error)) (Sample, error) {
	if _, err := rep(); err != nil {
		return Sample{}, err
	}
	var best Sample
	for i := range max(reps, 1) {
		s, err := rep()
		if err != nil {
			return Sample{}, err
		}
		if i == 0 || s.Elapsed < best.Elapsed {
			best = s
		}
	}
	return best, nil
}

// PrintNaive prints the console line of a sequential baseline run.
func PrintNaive(r *report.BenchRun) {
	fmt.Printf("%-20s %-7s p=%d  %8.2f GFLOP/s\n", r.Algorithm, r.Mode, r.Cores, r.GFlops)
}

// OptSettings returns the optimizer settings measured for one mode:
// staged modes get a baseline/optimized pair when the optimizer is
// enabled, so every record carries its own control. View staging moves
// no counted bytes, so it stays baseline-only.
func OptSettings(mode parallel.Mode, optimize bool) []bool {
	if !optimize || mode == parallel.ModeView {
		return []bool{false}
	}
	return []bool{false, true}
}

// Cell is one benchmark cell: a mode at one configuration, recorded in
// OptSettings order. It carries the baseline run's MS bytes to the
// optimized run.
type Cell struct{ baseMS uint64 }

// Record fills r, the cell's run for one optimizer setting, from its
// fastest sample and prints its console line: the chip topology, the
// six traffic byte fields, the MS bytes an optimized run saved against
// the cell's baseline and, in the shared-level modes, the overlap split.
func (c *Cell) Record(r *report.BenchRun, s Sample, mode parallel.Mode, chips int, opt bool) {
	tra := s.Traffic
	r.SetTopology(chips, r.Cores)
	r.MSStageBytes, r.MSWriteBackBytes = tra.MS.StageBytes, tra.MS.WriteBackBytes
	r.MDStageBytes, r.MDWriteBackBytes = tra.MD.StageBytes, tra.MD.WriteBackBytes
	r.ICStageBytes, r.ICWriteBackBytes = tra.IC.StageBytes, tra.IC.WriteBackBytes
	if ms := tra.MS.Bytes(); !opt {
		c.baseMS = ms
	} else {
		r.Optimized = true
		if c.baseMS >= ms {
			r.MSElidedBytes = c.baseMS - ms
		}
	}
	label := fmt.Sprintf("p=%d", r.Cores)
	if chips > 1 {
		label += fmt.Sprintf(" chips=%d", chips)
	}
	line := fmt.Sprintf("%-20s %-17s %-13s %8.2f GFLOP/s  MS=%s MD=%s", r.Algorithm, r.Mode+optMark(opt), label,
		r.GFlops, report.FormatBytes(tra.MS.Bytes()), report.FormatBytes(tra.MD.Bytes()))
	if mode.SharedLevel() {
		r.SetOverlap(s.StageWait, s.Compute)
		if chips > 1 {
			line += " IC=" + report.FormatBytes(tra.IC.Bytes())
		}
		line += fmt.Sprintf("  stage-wait=%v overlap=%.2f", s.StageWait.Round(time.Microsecond), r.OverlapEfficiency)
	}
	fmt.Println(line)
}

// Summarize prints the record's packed-over-view and
// pipelined-over-shared GFLOP/s ratios and writes it to path.
func Summarize(rec *report.Bench, path string) error {
	fmt.Println("\npacked over view:")
	for _, sp := range rec.Speedup(parallel.ModePacked.String(), parallel.ModeView.String()) {
		fmt.Printf("%-20s p=%d%s  %5.2fx\n", sp.Algorithm, sp.Cores, optMark(sp.Optimized), sp.Ratio)
	}
	fmt.Println("\npipelined over shared:")
	for _, sp := range rec.Speedup(parallel.ModeSharedPipelined.String(), parallel.ModeShared.String()) {
		label := fmt.Sprintf("p=%d%s", sp.Cores, optMark(sp.Optimized))
		if sp.Chips > 1 {
			label += fmt.Sprintf(" chips=%d", sp.Chips)
		}
		fmt.Printf("%-20s %-13s %5.2fx\n", sp.Algorithm, label, sp.Ratio)
	}
	if err := rec.WriteJSONFile(path); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d runs)\n", path, len(rec.Runs))
	return nil
}

// optMark marks a run, or a ratio of runs, whose program the optimizer
// rewrote.
func optMark(opt bool) string {
	if opt {
		return "+opt"
	}
	return ""
}

// Chaos proves the failure model on one executor. It runs prog under
// the fault plan, with the integrity tripwire armed and a one-minute
// timeout: the run must fail with a *parallel.RunError carrying op
// provenance, or finish clean (a probabilistic plan may not fire). It
// then Resets the executor, drops the plan, restores the inputs and
// re-runs prog on the same executor; check verifies the result and
// says how.
func Chaos(ex *parallel.Executor, prog *schedule.Program, plan faultinject.Injector, restore func() error, check func() (string, error)) error {
	ex.SetFaultInjector(plan)
	ex.SetIntegrityChecks(true)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := ex.RunContext(ctx, prog); err != nil {
		var re *parallel.RunError
		if !errors.As(err, &re) {
			return fmt.Errorf("chaos: fault surfaced without RunError provenance: %w", err)
		}
		fmt.Printf("chaos: faulted as expected: %v\n", re)
		ex.Reset()
	} else {
		fmt.Println("chaos: no injected fault fired; run completed clean")
	}

	ex.SetFaultInjector(nil)
	if err := restore(); err != nil {
		return err
	}
	if err := ex.Run(prog); err != nil {
		return fmt.Errorf("chaos: clean re-run after Reset failed: %w", err)
	}
	how, err := check()
	if err != nil {
		return err
	}
	fmt.Println("chaos: recovered; " + how)
	return nil
}
