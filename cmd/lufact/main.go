// Command lufact executes the blocked LU factorisation for real through
// the schedule IR — goroutine per core, packed arena-resident tiles —
// verifies |A − L·U| against the input, and reports wall-clock time,
// effective GFLOP/s (2n³/3 flops) and the executor's measured per-level
// traffic. It mirrors cmd/gemm for the repository's second workload.
//
// Examples:
//
//	lufact -n 512                     # factor a 512×512 system, packed staging
//	lufact -n 512 -q 64 -p 8 -mode shared
//	lufact -n 512 -q 64 -p 8 -mode shared-pipelined
//	lufact -n 1024 -bench-json BENCH_lu.json -bench-cores 1,2,4
//
// -mode selects how the executor realises staging: "packed" (per-core
// arenas, the default), "view" (strided baseline, staging probe-only),
// "shared" (the full two-level hierarchy: tiles flow memory → shared
// arena → core arenas, and the MS/MD streams are physically distinct)
// or "shared-pipelined" (the same hierarchy with a stager goroutine
// overlapping the memory↔shared stream with compute).
//
// With -bench-json the command switches to benchmark mode: it measures
// the sequential tiled Factor plus the schedule-driven factorisation
// under all four executor modes for each requested core count, and
// writes the GFLOP/s records — with the executor's per-level traffic
// byte counts and, for the shared-level modes, the stage-wait/compute
// split — as JSON: the factorisation's perf trajectory, the companion
// of BENCH_gemm.json.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/faultinject"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/report"
)

func main() {
	if err := cli(os.Args[1:], os.Stderr); err != nil {
		// A vanishing pivot is a property of the input, not a harness
		// failure: name the exact block step from the RunError provenance
		// so the user knows where the factorisation died.
		if step, ok := lu.SingularStep(err); ok {
			fmt.Fprintf(os.Stderr, "lufact: matrix is singular at step %d\n", step)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "lufact:", err)
		os.Exit(1)
	}
}

// cli parses the command line and runs the mode it selects, writing
// warnings to stderr. A malformed command line exits with status 2, as
// flag.Parse does.
func cli(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("lufact", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("n", 512, "matrix order in coefficients")
		q          = fs.Int("q", 32, "tile size in coefficients")
		cores      = fs.Int("p", runtime.NumCPU(), "worker goroutines (cores); benchmark mode uses -bench-cores instead")
		chips      = fs.Int("chips", 1, "chips the cores and the shared cache are split over (must divide -p)")
		modeName   = fs.String("mode", parallel.ModePacked.String(), "executor mode: packed, view, shared or shared-pipelined (benchmark mode measures all four)")
		verify     = fs.Bool("verify", true, "check |A - L·U| against the input (ignored in benchmark mode)")
		seed       = fs.Uint64("seed", 1, "input matrix seed")
		benchJSON  = fs.String("bench-json", "", "benchmark mode: write GFLOP/s records to this JSON file")
		benchCores = fs.String("bench-cores", "1,2,4", "core counts measured in benchmark mode")
		benchReps  = fs.Int("bench-reps", 3, "repetitions per benchmark configuration (fastest wins)")
		optimize   = fs.Bool("optimize", true, "run the LU program through the schedule optimizer (benchmark mode measures baseline/optimized pairs for staged modes)")
		faults     = fs.String("faults", "", "chaos mode: inject faults from this spec (e.g. 'panic@1:7', 'corrupt@*:5'; see internal/faultinject); the faulted run must fail with provenance, Reset, and re-run clean")
		singularAt = fs.Int("singular-at", -1, "factor a deliberately singular input whose pivot tile vanishes at this block step (demonstrates the singular failure path; exits non-zero)")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error

	if *benchJSON != "" {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "p", "chips", "verify", "mode", "faults", "singular-at":
				fmt.Fprintf(stderr, "lufact: -%s is ignored in benchmark mode (it configures a single run; -bench-cores sets the measured grid)\n", f.Name)
			}
		})
		coreList, err := report.ParseCores("bench-cores", *benchCores)
		if err != nil {
			return err
		}
		return bench(*benchJSON, *n, *q, coreList, *benchReps, *seed, *optimize)
	}
	mode, err := parallel.ParseMode(*modeName)
	if err != nil {
		return err
	}
	tun := parallel.Tuning{Optimize: *optimize}
	switch {
	case *faults != "":
		return chaos(*faults, *n, *q, *cores, *chips, *seed, mode, tun)
	case *singularAt >= 0:
		return singularRun(*n, *q, *cores, *chips, *seed, mode, tun, *singularAt)
	default:
		return run(*n, *q, *cores, *chips, *verify, *seed, mode, tun)
	}
}

// chaos is the -faults path: factor under an injected fault plan with
// the integrity tripwire armed, expecting a structured failure, then
// Reset, restore the input, and prove the same executor re-runs clean —
// bitwise identical to the sequential factorisation. See cmd/gemm's
// chaos mode; this is its LU counterpart, built on lu.NewRun.
func chaos(spec string, n, q, cores, chips int, seed uint64, mode parallel.Mode, tun parallel.Tuning) error {
	plan, err := faultinject.ParseSpec(spec)
	if err != nil {
		return err
	}
	if n <= 0 || q <= 0 {
		return fmt.Errorf("need positive -n and -q, got n=%d q=%d", n, q)
	}
	mach := lu.MachineFor(cores, q)
	mach.Chips = chips
	if err := mach.Validate(); err != nil {
		return err
	}
	team, err := parallel.NewTeam(cores)
	if err != nil {
		return err
	}
	defer team.Close()
	orig := lu.RandomDominant(n, seed)
	work := orig.Clone()
	fr, err := lu.NewRun(work, q, team, mode, mach, tun)
	if err != nil {
		return err
	}
	fr.Ex.SetFaultInjector(plan)
	fr.Ex.SetIntegrityChecks(true)

	fmt.Printf("chaos: LU of %d×%d under plan %q (mode %v, p=%d)\n", n, n, plan, mode, cores)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := fr.Ex.RunContext(ctx, fr.Prog); err != nil {
		var re *parallel.RunError
		if !errors.As(err, &re) {
			return fmt.Errorf("chaos: fault surfaced without RunError provenance: %w", err)
		}
		fmt.Printf("chaos: faulted as expected: %v\n", re)
		fr.Ex.Reset()
	} else {
		fmt.Println("chaos: no injected fault fired; run completed clean")
	}

	// Recovery: restore the input, drop the injector, and prove the same
	// executor factors clean after the failure.
	fr.Ex.SetFaultInjector(nil)
	if err := work.CopyFrom(orig); err != nil {
		return err
	}
	if err := fr.Ex.Run(fr.Prog); err != nil {
		return fmt.Errorf("chaos: clean re-run after Reset failed: %w", err)
	}
	seq := orig.Clone()
	if err := lu.Factor(seq, q); err != nil {
		return err
	}
	if !work.Equal(seq) {
		return fmt.Errorf("chaos: re-run factors deviate from the sequential ones by %g", work.MaxAbsDiff(seq))
	}
	fmt.Println("chaos: recovered; clean re-run bitwise identical to the sequential factorisation")
	return nil
}

// singularRun is the -singular-at path: factor lu.SingularInput — a
// matrix whose pivot tile vanishes at the given block step — through
// the executor and let the error propagate. main recognises the
// ErrSingular-wrapping RunError and exits non-zero naming the step from
// its provenance, which is exactly what this path demonstrates.
func singularRun(n, q, cores, chips int, seed uint64, mode parallel.Mode, tun parallel.Tuning, step int) error {
	if n <= 0 || q <= 0 {
		return fmt.Errorf("need positive -n and -q, got n=%d q=%d", n, q)
	}
	if steps := (n + q - 1) / q; step >= steps {
		return fmt.Errorf("-singular-at %d is outside the %d-step factorisation", step, steps)
	}
	mach := lu.MachineFor(cores, q)
	mach.Chips = chips
	if err := mach.Validate(); err != nil {
		return err
	}
	team, err := parallel.NewTeam(cores)
	if err != nil {
		return err
	}
	defer team.Close()
	a := lu.SingularInput(n, q, step, seed)
	fmt.Printf("factoring a deliberately singular %d×%d input (vanishing pivot tile at block step %d, mode %v, p=%d)\n",
		n, n, step, mode, cores)
	if _, err := lu.FactorParallelTuned(a, q, team, mode, mach, tun); err != nil {
		return err
	}
	return fmt.Errorf("singular input factored without error; the failure path is broken")
}

// optSettings returns the optimizer settings measured for one mode:
// staged modes get a baseline/optimized pair when the optimizer is
// enabled, so every record carries its own control. View staging moves
// no counted bytes, so it stays baseline-only.
func optSettings(mode parallel.Mode, optimize bool) []bool {
	if !optimize || mode == parallel.ModeView {
		return []bool{false}
	}
	return []bool{false, true}
}

// optSuffix marks ratios whose both sides ran the optimizer.
func optSuffix(sp report.BenchSpeedup) string {
	if sp.Optimized {
		return "+opt"
	}
	return ""
}

// luFlops is the classical flop count of an unpivoted n×n LU, 2n³/3.
func luFlops(n int) float64 {
	fn := float64(n)
	return 2 * fn * fn * fn / 3
}

func run(n, q, cores, chips int, verify bool, seed uint64, mode parallel.Mode, tun parallel.Tuning) error {
	if n <= 0 || q <= 0 {
		return fmt.Errorf("need positive -n and -q, got n=%d q=%d", n, q)
	}
	mach := lu.MachineFor(cores, q)
	mach.Chips = chips
	if err := mach.Validate(); err != nil {
		return err
	}
	fmt.Printf("machine: %s\nmode: %v\nworkload: LU of %d×%d, tiles of %d×%d\n\n", mach, mode, n, n, q, q)

	orig := lu.RandomDominant(n, seed)
	tbl := report.NewTable("path", "time", "GFLOP/s", "max |A-LU|", "MS", "MD")

	// Sequential tiled baseline.
	seq := orig.Clone()
	start := time.Now()
	if err := lu.Factor(seq, q); err != nil {
		return err
	}
	seqTime := time.Since(start)
	residual := func(f *matrix.Dense) string {
		if !verify {
			return "skipped"
		}
		return fmt.Sprintf("%.2e", lu.Verify(orig, f))
	}
	tbl.AddRow("sequential tiled", seqTime.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", luFlops(n)/seqTime.Seconds()/1e9), residual(seq), "-", "-")

	// Schedule-driven factorisation on the team.
	team, err := parallel.NewTeam(cores)
	if err != nil {
		return err
	}
	defer team.Close()
	par := orig.Clone()
	start = time.Now()
	stats, err := lu.FactorParallelTuned(par, q, team, mode, mach, tun)
	if err != nil {
		return err
	}
	tra := stats.Traffic
	parTime := time.Since(start)
	tbl.AddRow(fmt.Sprintf("schedule %v p=%d", mode, cores), parTime.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", luFlops(n)/parTime.Seconds()/1e9), residual(par),
		report.FormatBytes(tra.MS.Bytes()), report.FormatBytes(tra.MD.Bytes()))
	fmt.Print(tbl.String())
	if mach.ChipCount() > 1 {
		fmt.Printf("\ninter-chip (chips=%d): %s staged, %s written back\n",
			mach.ChipCount(), report.FormatBytes(tra.IC.StageBytes), report.FormatBytes(tra.IC.WriteBackBytes))
	}

	if !par.Equal(seq) {
		return fmt.Errorf("schedule-driven factors deviate from the sequential ones by %g", par.MaxAbsDiff(seq))
	}
	fmt.Println("\nschedule-driven factors are bitwise identical to the sequential ones")
	return nil
}

// bench measures sequential vs view vs packed vs shared and writes the
// JSON record, including the executor's per-level traffic byte counts.
// Every configuration runs reps times and the fastest repetition is
// recorded (the traffic counts are deterministic, identical in every
// repetition).
func bench(path string, n, q int, coreList []int, reps int, seed uint64, optimize bool) error {
	if n <= 0 || q <= 0 {
		return fmt.Errorf("need positive -n and -q, got n=%d q=%d", n, q)
	}
	if reps < 1 {
		reps = 1
	}
	orderBlocks := (n + q - 1) / q
	rec := report.NewBench("lu")
	fmt.Printf("benchmark: LU of n=%d (%d tiles of %d×%d), cores %v, best of %d\n\n",
		n, orderBlocks, q, q, coreList, reps)

	orig := lu.RandomDominant(n, seed)
	work := matrix.New(n, n)

	best := func(f func() (time.Duration, error)) (time.Duration, error) {
		var min time.Duration
		for i := 0; i < reps; i++ {
			if err := work.CopyFrom(orig); err != nil {
				return 0, err
			}
			d, err := f()
			if err != nil {
				return 0, err
			}
			if min == 0 || d < min {
				min = d
			}
		}
		return min, nil
	}

	elapsed, err := best(func() (time.Duration, error) {
		start := time.Now()
		if err := lu.Factor(work, q); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	naive := rec.AddOp("sequential tiled LU", "naive", 1, orderBlocks, q, luFlops(n), elapsed)
	naive.N = n
	fmt.Printf("%-20s %-7s p=%d  %8.2f GFLOP/s\n", naive.Algorithm, naive.Mode, naive.Cores, naive.GFlops)

	for _, p := range coreList {
		mach := lu.MachineFor(p, q)
		team, err := parallel.NewTeam(p)
		if err != nil {
			return err
		}
		for _, mode := range []parallel.Mode{parallel.ModeView, parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined} {
			// Staged modes are measured as a baseline/optimized pair over
			// the same input, so the record carries the optimizer's
			// measured MS savings cell by cell.
			var baseMSBytes uint64
			for _, opt := range optSettings(mode, optimize) {
				// The traffic is deterministic across repetitions; the overlap
				// split is taken from the same fastest repetition as the time.
				var stats lu.Stats
				var elapsed time.Duration
				for i := 0; i < reps; i++ {
					if err := work.CopyFrom(orig); err != nil {
						team.Close()
						return err
					}
					start := time.Now()
					s, err := lu.FactorParallelTuned(work, q, team, mode, mach, parallel.Tuning{Optimize: opt})
					if err != nil {
						team.Close()
						return fmt.Errorf("LU (%v, p=%d): %w", mode, p, err)
					}
					if d := time.Since(start); elapsed == 0 || d < elapsed {
						elapsed = d
						stats = s
					}
				}
				tra := stats.Traffic
				r := rec.AddOp("LU", mode.String(), p, orderBlocks, q, luFlops(n), elapsed)
				r.N = n
				r.MSStageBytes = tra.MS.StageBytes
				r.MSWriteBackBytes = tra.MS.WriteBackBytes
				r.MDStageBytes = tra.MD.StageBytes
				r.MDWriteBackBytes = tra.MD.WriteBackBytes
				modeLabel := r.Mode
				if opt {
					r.Optimized = true
					if ms := tra.MS.Bytes(); baseMSBytes >= ms {
						r.MSElidedBytes = baseMSBytes - ms
					}
					modeLabel += "+opt"
				} else {
					baseMSBytes = tra.MS.Bytes()
				}
				if mode.SharedLevel() {
					r.SetOverlap(stats.StageWait, stats.Compute)
					fmt.Printf("%-20s %-17s p=%d  %8.2f GFLOP/s  MS=%s MD=%s  stage-wait=%v overlap=%.2f\n",
						r.Algorithm, modeLabel, r.Cores, r.GFlops, report.FormatBytes(tra.MS.Bytes()), report.FormatBytes(tra.MD.Bytes()),
						stats.StageWait.Round(time.Microsecond), r.OverlapEfficiency)
				} else {
					fmt.Printf("%-20s %-17s p=%d  %8.2f GFLOP/s  MS=%s MD=%s\n",
						r.Algorithm, modeLabel, r.Cores, r.GFlops, report.FormatBytes(tra.MS.Bytes()), report.FormatBytes(tra.MD.Bytes()))
				}
			}
		}
		team.Close()
	}

	fmt.Println("\npacked over view:")
	for _, sp := range rec.Speedup(parallel.ModePacked.String(), parallel.ModeView.String()) {
		fmt.Printf("%-20s p=%d%s  %5.2fx\n", sp.Algorithm, sp.Cores, optSuffix(sp), sp.Ratio)
	}
	fmt.Println("\npipelined over shared:")
	for _, sp := range rec.Speedup(parallel.ModeSharedPipelined.String(), parallel.ModeShared.String()) {
		fmt.Printf("%-20s p=%d%s  %5.2fx\n", sp.Algorithm, sp.Cores, optSuffix(sp), sp.Ratio)
	}
	if err := rec.WriteJSONFile(path); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s (%d runs)\n", path, len(rec.Runs))
	return nil
}
