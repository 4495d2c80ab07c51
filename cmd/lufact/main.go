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
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/cmd/internal/execcli"
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
		execcli.WarnIgnored(fs, stderr, "-bench-cores sets the measured grid", "p", "chips", "verify", "mode", "faults", "singular-at")
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

// chaos is the -faults path: execcli.Chaos on the LU executor, whose
// clean re-run after the fault must be bitwise identical to the
// sequential factorisation.
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
	fmt.Printf("chaos: LU of %d×%d under plan %q (mode %v, p=%d)\n", n, n, plan, mode, cores)
	restore := func() error { return work.CopyFrom(orig) }
	return execcli.Chaos(fr.Ex, fr.Prog, plan, restore, func() (string, error) {
		seq := orig.Clone()
		if err := lu.Factor(seq, q); err != nil {
			return "", err
		}
		if !work.Equal(seq) {
			return "", fmt.Errorf("chaos: re-run factors deviate from the sequential ones by %g", work.MaxAbsDiff(seq))
		}
		return "clean re-run bitwise identical to the sequential factorisation", nil
	})
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

// bench measures sequential vs view vs packed vs shared vs
// shared-pipelined and writes the JSON record, including the executor's
// per-level traffic byte counts and, for the shared-level modes, the
// stage-wait versus compute split. Every configuration runs reps times
// after an untimed warm-up and the fastest repetition is recorded
// (execcli.Fastest). Each repetition is a whole lu.FactorParallelTuned
// call on the cell's team: the warm-up compiles the run the team keeps,
// and every timed call rebinds and replays it.
func bench(path string, n, q int, coreList []int, reps int, seed uint64, optimize bool) error {
	if n <= 0 || q <= 0 {
		return fmt.Errorf("need positive -n and -q, got n=%d q=%d", n, q)
	}
	reps = max(reps, 1)
	orderBlocks := (n + q - 1) / q
	rec := report.NewBench("lu")
	fmt.Printf("benchmark: LU of n=%d (%d tiles of %d×%d), cores %v, best of %d\n\n",
		n, orderBlocks, q, q, coreList, reps)

	orig := lu.RandomDominant(n, seed)
	work := matrix.New(n, n)
	naive, err := execcli.Fastest(reps, func() (execcli.Sample, error) {
		if err := work.CopyFrom(orig); err != nil {
			return execcli.Sample{}, err
		}
		start := time.Now()
		err := lu.Factor(work, q)
		return execcli.Sample{Elapsed: time.Since(start)}, err
	})
	if err != nil {
		return err
	}
	r := rec.AddOp("sequential tiled LU", "naive", 1, orderBlocks, q, luFlops(n), naive.Elapsed)
	r.N = n
	execcli.PrintNaive(r)

	for _, p := range coreList {
		mach := lu.MachineFor(p, q)
		team, err := parallel.NewTeam(p)
		if err != nil {
			return err
		}
		for _, mode := range []parallel.Mode{parallel.ModeView, parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined} {
			var cell execcli.Cell
			for _, opt := range execcli.OptSettings(mode, optimize) {
				s, err := execcli.Fastest(reps, func() (execcli.Sample, error) {
					if err := work.CopyFrom(orig); err != nil {
						return execcli.Sample{}, err
					}
					start := time.Now()
					st, err := lu.FactorParallelTuned(work, q, team, mode, mach, parallel.Tuning{Optimize: opt})
					if err != nil {
						return execcli.Sample{}, fmt.Errorf("LU (%v, p=%d): %w", mode, p, err)
					}
					return execcli.Sample{Elapsed: time.Since(start), Traffic: st.Traffic, StageWait: st.StageWait, Compute: st.Compute}, nil
				})
				if err != nil {
					team.Close()
					return err
				}
				r := rec.AddOp("LU", mode.String(), p, orderBlocks, q, luFlops(n), s.Elapsed)
				r.N = n
				cell.Record(r, s, mode, 1, opt)
			}
		}
		team.Close()
	}
	return execcli.Summarize(rec, path)
}
