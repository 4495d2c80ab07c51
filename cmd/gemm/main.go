// Command gemm executes the paper's algorithms for real — goroutine per
// core, float64 arithmetic — verifies the product against a sequential
// reference, and reports wall-clock time and effective GFLOP/s.
//
// Examples:
//
//	gemm -order 16                   # every registered schedule, 16x16 blocks of 32x32
//	gemm -algo "Tradeoff" -order 24 -q 64 -p 8
//	gemm -mode shared -order 16      # two-level hierarchy: shared arena + core arenas
//	gemm -mode shared-pipelined -order 16
//	gemm -order 32 -bench-json BENCH_gemm.json -bench-cores 1,2,4
//
// -mode selects how the executor realises staging: "packed" (per-core
// arenas, the default), "view" (strided baseline, staging probe-only),
// "shared" (the full two-level hierarchy: blocks flow memory → shared
// arena → core arenas, and the MS/MD streams are physically distinct)
// or "shared-pipelined" (the same hierarchy with a stager goroutine
// overlapping the memory↔shared stream with compute).
//
// With -bench-json the command switches to benchmark mode: it measures
// the sequential blocked baseline plus every algorithm under all four
// executor modes for each requested core count, and writes the GFLOP/s
// records — with the executor's per-level traffic byte counts and, for
// the shared-level modes, the stage-wait/compute split — as JSON: the
// repository's measured perf trajectory.
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

	"repro/internal/algo"
	"repro/internal/faultinject"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/report"
)

func main() {
	if err := cli(os.Args[1:], os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "gemm:", err)
		os.Exit(1)
	}
}

// cli parses the command line and runs the mode it selects, writing
// warnings to stderr. A malformed command line exits with status 2, as
// flag.Parse does.
func cli(args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("gemm", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		algoName   = fs.String("algo", "", "algorithm (default: all executable ones)")
		order      = fs.Int("order", 16, "square matrix order in blocks")
		q          = fs.Int("q", 32, "block size in coefficients")
		cores      = fs.Int("p", runtime.NumCPU(), "worker goroutines (cores); benchmark mode uses -bench-cores instead")
		chips      = fs.Int("chips", 1, "chips the cores and the shared cache are split over (must divide -p)")
		modeName   = fs.String("mode", parallel.ModePacked.String(), "executor mode: packed, view, shared or shared-pipelined (benchmark mode measures all four)")
		verify     = fs.Bool("verify", true, "check the result against the sequential reference (ignored in benchmark mode)")
		seed       = fs.Uint64("seed", 1, "input matrix seed")
		benchJSON  = fs.String("bench-json", "", "benchmark mode: write GFLOP/s records to this JSON file")
		benchCores = fs.String("bench-cores", "1,2,4", "core counts measured in benchmark mode")
		benchChips = fs.String("bench-chips", "1", "chip counts measured in benchmark mode (shared-level modes; cores not divisible by a chip count are skipped)")
		benchReps  = fs.Int("bench-reps", 3, "repetitions per benchmark configuration (fastest wins)")
		optimize   = fs.Bool("optimize", true, "run staged programs through the schedule optimizer (benchmark mode measures baseline/optimized pairs for staged modes)")
		faults     = fs.String("faults", "", "chaos mode: inject faults from this spec (e.g. 'panic@1:7', 'stagerr~0.01;seed=42'; see internal/faultinject); the faulted run must fail with provenance, Reset, and re-run clean")
	)
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error

	if *benchJSON != "" {
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "p", "chips", "verify", "mode", "faults":
				fmt.Fprintf(stderr, "gemm: -%s is ignored in benchmark mode (it configures a single run; -bench-cores and -bench-chips set the measured grid)\n", f.Name)
			}
		})
		coreList, err := report.ParseCores("bench-cores", *benchCores)
		if err != nil {
			return err
		}
		chipList, err := report.ParseCores("bench-chips", *benchChips)
		if err != nil {
			return err
		}
		return bench(*benchJSON, *algoName, *order, *q, coreList, chipList, *benchReps, *seed, *optimize)
	}
	mode, err := parallel.ParseMode(*modeName)
	if err != nil {
		return err
	}
	tun := parallel.Tuning{Optimize: *optimize}
	if *faults != "" {
		return chaos(*algoName, *faults, *order, *q, *cores, *chips, *seed, mode, tun)
	}
	return run(*algoName, *order, *q, *cores, *chips, *verify, *seed, mode, tun)
}

// chaos is the -faults path: run one algorithm under an injected fault
// plan with the integrity tripwire armed, and prove the failure model
// end to end. The faulted run must either complete clean (the plan
// never fired — possible for probabilistic rules) or fail with a
// structured *parallel.RunError carrying op provenance; anything else —
// a bare error, a crash, a deadlock — is a harness failure and exits
// non-zero. After the fault the executor is Reset, the inputs restored,
// and the very same executor re-runs the program clean, verified
// against the sequential reference: run-after-fault, demonstrated on
// every invocation.
func chaos(algoName, spec string, order, q, cores, chips int, seed uint64, mode parallel.Mode, tun parallel.Tuning) error {
	plan, err := faultinject.ParseSpec(spec)
	if err != nil {
		return err
	}
	names, err := selectAlgos(algoName)
	if err != nil {
		return err
	}
	a, err := algo.ByName(names[0])
	if err != nil {
		return err
	}
	mach := lu.MachineFor(cores, q)
	mach.Chips = chips
	if err := mach.Validate(); err != nil {
		return err
	}
	tr, err := matrix.NewTriple(order, order, order, q, seed)
	if err != nil {
		return err
	}
	m, n, z := tr.Dims()
	prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
	if err != nil {
		return err
	}
	team, err := parallel.NewTeam(mach.P)
	if err != nil {
		return err
	}
	defer team.Close()
	ex, err := parallel.NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
	if err != nil {
		return err
	}
	ex.SetTuning(tun)
	ex.SetFaultInjector(plan)
	ex.SetIntegrityChecks(true)

	fmt.Printf("chaos: %q under plan %q (mode %v, p=%d)\n", names[0], plan, mode, cores)
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

	// Recovery: restore the inputs, drop the injector, and prove the same
	// executor replays the program clean after the failure.
	ex.SetFaultInjector(nil)
	fresh, err := matrix.NewTriple(order, order, order, q, seed)
	if err != nil {
		return err
	}
	for _, mats := range [][2]*matrix.Dense{
		{tr.A.Dense(), fresh.A.Dense()},
		{tr.B.Dense(), fresh.B.Dense()},
		{tr.C.Dense(), fresh.C.Dense()},
	} {
		if err := mats[0].CopyFrom(mats[1]); err != nil {
			return err
		}
	}
	if err := ex.Run(prog); err != nil {
		return fmt.Errorf("chaos: clean re-run after Reset failed: %w", err)
	}
	diff, err := parallel.Verify(tr)
	if err != nil {
		return err
	}
	if diff > 1e-9 {
		return fmt.Errorf("chaos: clean re-run deviates from the sequential reference by %g", diff)
	}
	fmt.Printf("chaos: recovered; clean re-run verified against the sequential reference (max |err| %.2e)\n", diff)
	return nil
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

// speedupSuffix marks ratios whose both sides ran the optimizer.
func speedupSuffix(sp report.BenchSpeedup) string {
	if sp.Optimized {
		return "+opt"
	}
	return ""
}

// selectAlgos resolves -algo to the measured name list, failing fast on
// unknown names (before any work runs).
func selectAlgos(algoName string) ([]string, error) {
	if algoName == "" {
		return algo.Names(), nil
	}
	if _, err := algo.ByName(algoName); err != nil {
		return nil, err
	}
	return []string{algoName}, nil
}

func run(algoName string, order, q, cores, chips int, verify bool, seed uint64, mode parallel.Mode, tun parallel.Tuning) error {
	names, err := selectAlgos(algoName)
	if err != nil {
		return err
	}

	mach := lu.MachineFor(cores, q)
	mach.Chips = chips
	if err := mach.Validate(); err != nil {
		return err
	}
	fmt.Printf("machine: %s\nmode: %v\nworkload: %d×%d×%d blocks of %d×%d coefficients\n\n",
		mach, mode, order, order, order, q, q)

	flops := 2 * float64(order*q) * float64(order*q) * float64(order*q)
	tbl := report.NewTable("algorithm", "time", "GFLOP/s", "max |err|")
	for _, name := range names {
		tr, err := matrix.NewTriple(order, order, order, q, seed)
		if err != nil {
			return err
		}
		start := time.Now()
		if err := parallel.Multiply(name, tr, mach, mode, tun, nil); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		elapsed := time.Since(start)

		errStr := "skipped"
		if verify {
			diff, err := parallel.Verify(tr)
			if err != nil {
				return err
			}
			errStr = fmt.Sprintf("%.2e", diff)
		}
		tbl.AddRow(name, elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%.2f", flops/elapsed.Seconds()/1e9), errStr)
	}

	// Sequential baseline for the speedup story.
	elapsed, err := measureSequential(order, q, seed)
	if err != nil {
		return err
	}
	tbl.AddRow("sequential blocked", elapsed.Round(time.Microsecond).String(),
		fmt.Sprintf("%.2f", flops/elapsed.Seconds()/1e9), "reference")

	fmt.Print(tbl.String())
	return nil
}

// measureSequential times one C += A×B with the sequential blocked
// kernel: the single-core "naive" anchor both output modes report.
func measureSequential(order, q int, seed uint64) (time.Duration, error) {
	tr, err := matrix.NewTriple(order, order, order, q, seed)
	if err != nil {
		return 0, err
	}
	out := matrix.New(tr.C.Dense().Rows(), tr.C.Dense().Cols())
	start := time.Now()
	if err := matrix.MulBlocked(out, tr.A.Dense(), tr.B.Dense(), q); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// bench measures naive vs view vs packed vs shared vs shared-pipelined
// and writes the JSON record, including the executor's per-level
// traffic byte counts and, for the shared-level modes, the stage-wait
// versus compute wall-time split. Every configuration runs reps times
// and the fastest repetition is recorded — the standard
// minimum-wall-time estimator, least sensitive to scheduler noise on
// shared machines (the traffic counts are deterministic, identical in
// every repetition; the overlap split is taken from the same fastest
// repetition).
func bench(path, algoName string, order, q int, coreList, chipList []int, reps int, seed uint64, optimize bool) error {
	if reps < 1 {
		reps = 1
	}
	if len(chipList) == 0 {
		chipList = []int{1}
	}
	names, err := selectAlgos(algoName)
	if err != nil {
		return err
	}
	rec := report.NewBench("gemm")
	fmt.Printf("benchmark: n=%d (order %d blocks of %d×%d), cores %v, chips %v, best of %d\n\n",
		order*q, order, q, q, coreList, chipList, reps)

	best := func(f func() (time.Duration, error)) (time.Duration, error) {
		var min time.Duration
		for i := 0; i < reps; i++ {
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

	// Operands are allocated once and C re-zeroed between repetitions —
	// A and B are deterministic from the seed, so re-filling them per
	// rep would be identical untimed work.
	tr, err := matrix.NewTriple(order, order, order, q, seed)
	if err != nil {
		return err
	}
	out := matrix.New(tr.C.Dense().Rows(), tr.C.Dense().Cols())
	elapsed, err := best(func() (time.Duration, error) {
		out.Zero()
		start := time.Now()
		if err := matrix.MulBlocked(out, tr.A.Dense(), tr.B.Dense(), q); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	})
	if err != nil {
		return err
	}
	naive := rec.Add("sequential blocked", "naive", 1, order, q, elapsed)
	fmt.Printf("%-20s %-7s p=%d  %8.2f GFLOP/s\n", naive.Algorithm, naive.Mode, naive.Cores, naive.GFlops)

	for _, p := range coreList {
		team, err := parallel.NewTeam(p)
		if err != nil {
			return err
		}
		for _, nchips := range chipList {
			if nchips > p || p%nchips != 0 {
				fmt.Printf("(skipping chips=%d at p=%d: cores must split evenly)\n", nchips, p)
				continue
			}
			mach := lu.MachineFor(p, q)
			mach.Chips = nchips
			if err := mach.Validate(); err != nil {
				team.Close()
				return err
			}
			// Single-chip configurations measure all four modes; the chip
			// split only exists at the shared level, so multi-chip ones
			// measure just the two shared-level modes.
			modes := []parallel.Mode{parallel.ModeView, parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined}
			if nchips > 1 {
				modes = []parallel.Mode{parallel.ModeShared, parallel.ModeSharedPipelined}
			}
			for _, name := range names {
				a, err := algo.ByName(name)
				if err != nil {
					team.Close()
					return err
				}
				// Prepare once per configuration: program and executor live
				// across repetitions, so the timed region is the executed
				// schedule itself (validation is cached after the first run).
				prog, err := a.Schedule(mach, algo.Workload{M: order, N: order, Z: order})
				if err != nil {
					team.Close()
					return err
				}
				for _, mode := range modes {
					// Staged modes are measured as a baseline/optimized
					// pair over the same operands and program, so the
					// record carries the optimizer's measured MS savings
					// cell by cell.
					var baseMSBytes uint64
					for _, opt := range optSettings(mode, optimize) {
						ex, err := parallel.NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
						if err != nil {
							team.Close()
							return err
						}
						ex.SetTuning(parallel.Tuning{Optimize: opt})
						var elapsed, stageWait, compute time.Duration
						for i := 0; i < reps; i++ {
							tr.C.Dense().Zero()
							start := time.Now()
							if err := ex.Run(prog); err != nil {
								team.Close()
								return fmt.Errorf("%s (%v, p=%d, chips=%d): %w", name, mode, p, nchips, err)
							}
							if d := time.Since(start); elapsed == 0 || d < elapsed {
								elapsed = d
								stageWait = ex.StageWait()
								compute = ex.ComputeTime()
							}
						}
						r := rec.Add(name, mode.String(), p, order, q, elapsed)
						r.SetTopology(nchips, p)
						tra := ex.Traffic()
						r.MSStageBytes = tra.MS.StageBytes
						r.MSWriteBackBytes = tra.MS.WriteBackBytes
						r.MDStageBytes = tra.MD.StageBytes
						r.MDWriteBackBytes = tra.MD.WriteBackBytes
						r.ICStageBytes = tra.IC.StageBytes
						r.ICWriteBackBytes = tra.IC.WriteBackBytes
						if opt {
							r.Optimized = true
							if ms := tra.MS.Bytes(); baseMSBytes >= ms {
								r.MSElidedBytes = baseMSBytes - ms
							}
						} else {
							baseMSBytes = tra.MS.Bytes()
						}
						label := fmt.Sprintf("p=%d", p)
						if nchips > 1 {
							label += fmt.Sprintf(" chips=%d", nchips)
						}
						modeLabel := r.Mode
						if opt {
							modeLabel += "+opt"
						}
						if mode.SharedLevel() {
							r.SetOverlap(stageWait, compute)
							extra := ""
							if nchips > 1 {
								extra = fmt.Sprintf(" IC=%s", report.FormatBytes(tra.IC.Bytes()))
							}
							fmt.Printf("%-20s %-17s %-13s %8.2f GFLOP/s  MS=%s MD=%s%s  stage-wait=%v overlap=%.2f\n",
								r.Algorithm, modeLabel, label, r.GFlops,
								report.FormatBytes(tra.MS.Bytes()), report.FormatBytes(tra.MD.Bytes()), extra,
								stageWait.Round(time.Microsecond), r.OverlapEfficiency)
						} else {
							fmt.Printf("%-20s %-17s %-13s %8.2f GFLOP/s  MS=%s MD=%s\n",
								r.Algorithm, modeLabel, label, r.GFlops,
								report.FormatBytes(tra.MS.Bytes()), report.FormatBytes(tra.MD.Bytes()))
						}
					}
				}
			}
		}
		team.Close()
	}

	fmt.Println("\npacked over view:")
	for _, sp := range rec.Speedup(parallel.ModePacked.String(), parallel.ModeView.String()) {
		fmt.Printf("%-20s p=%d%s  %5.2fx\n", sp.Algorithm, sp.Cores, speedupSuffix(sp), sp.Ratio)
	}
	fmt.Println("\npipelined over shared:")
	for _, sp := range rec.Speedup(parallel.ModeSharedPipelined.String(), parallel.ModeShared.String()) {
		label := fmt.Sprintf("p=%d%s", sp.Cores, speedupSuffix(sp))
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
