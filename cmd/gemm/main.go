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
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/cmd/internal/execcli"
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
		execcli.WarnIgnored(fs, stderr, "-bench-cores and -bench-chips set the measured grid", "p", "chips", "verify", "mode", "faults")
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

// chaos is the -faults path: execcli.Chaos on one algorithm's executor,
// whose clean re-run after the fault is verified against the sequential
// reference.
func chaos(algoName, spec string, order, q, cores, chips int, seed uint64, mode parallel.Mode, tun parallel.Tuning) error {
	plan, err := faultinject.ParseSpec(spec)
	if err != nil {
		return err
	}
	algos, err := selectAlgos(algoName)
	if err != nil {
		return err
	}
	a := algos[0]
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

	fmt.Printf("chaos: %q under plan %q (mode %v, p=%d)\n", a.Name(), plan, mode, cores)
	restore := func() error {
		fresh, err := matrix.NewTriple(order, order, order, q, seed)
		if err != nil {
			return err
		}
		return errors.Join(tr.A.Dense().CopyFrom(fresh.A.Dense()),
			tr.B.Dense().CopyFrom(fresh.B.Dense()), tr.C.Dense().CopyFrom(fresh.C.Dense()))
	}
	return execcli.Chaos(ex, prog, plan, restore, func() (string, error) {
		diff, err := parallel.Verify(tr)
		if err != nil {
			return "", err
		}
		if diff > 1e-9 {
			return "", fmt.Errorf("chaos: clean re-run deviates from the sequential reference by %g", diff)
		}
		return fmt.Sprintf("clean re-run verified against the sequential reference (max |err| %.2e)", diff), nil
	})
}

// selectAlgos resolves -algo to the measured algorithms, failing fast
// on unknown names (before any work runs).
func selectAlgos(algoName string) ([]algo.Algorithm, error) {
	if algoName == "" {
		return algo.Extended(), nil
	}
	a, err := algo.ByName(algoName)
	if err != nil {
		return nil, err
	}
	return []algo.Algorithm{a}, nil
}

func run(algoName string, order, q, cores, chips int, verify bool, seed uint64, mode parallel.Mode, tun parallel.Tuning) error {
	algos, err := selectAlgos(algoName)
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
	for _, a := range algos {
		name := a.Name()
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
// after an untimed warm-up and the fastest repetition is recorded
// (execcli.Fastest).
func bench(path, algoName string, order, q int, coreList, chipList []int, reps int, seed uint64, optimize bool) error {
	reps = max(reps, 1)
	if len(chipList) == 0 {
		chipList = []int{1}
	}
	algos, err := selectAlgos(algoName)
	if err != nil {
		return err
	}
	rec := report.NewBench("gemm")
	fmt.Printf("benchmark: n=%d (order %d blocks of %d×%d), cores %v, chips %v, best of %d\n\n",
		order*q, order, q, q, coreList, chipList, reps)

	// Operands are allocated once and C re-zeroed between repetitions —
	// A and B are deterministic from the seed, so re-filling them per
	// rep would be identical untimed work.
	tr, err := matrix.NewTriple(order, order, order, q, seed)
	if err != nil {
		return err
	}
	out := matrix.New(tr.C.Dense().Rows(), tr.C.Dense().Cols())
	naive, err := execcli.Fastest(reps, func() (execcli.Sample, error) {
		out.Zero()
		start := time.Now()
		err := matrix.MulBlocked(out, tr.A.Dense(), tr.B.Dense(), q)
		return execcli.Sample{Elapsed: time.Since(start)}, err
	})
	if err != nil {
		return err
	}
	execcli.PrintNaive(rec.Add("sequential blocked", "naive", 1, order, q, naive.Elapsed))

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
			for _, a := range algos {
				// Prepare once per configuration: program and executor live
				// across repetitions, so only the untimed warm-up compiles
				// and every timed repetition replays.
				prog, err := a.Schedule(mach, algo.Workload{M: order, N: order, Z: order})
				if err != nil {
					team.Close()
					return err
				}
				for _, mode := range modes {
					var cell execcli.Cell
					for _, opt := range execcli.OptSettings(mode, optimize) {
						ex, err := parallel.NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
						if err != nil {
							team.Close()
							return err
						}
						ex.SetTuning(parallel.Tuning{Optimize: opt})
						s, err := execcli.Fastest(reps, func() (execcli.Sample, error) {
							tr.C.Dense().Zero()
							start := time.Now()
							if err := ex.Run(prog); err != nil {
								return execcli.Sample{}, fmt.Errorf("%s (%v, p=%d, chips=%d): %w", a.Name(), mode, p, nchips, err)
							}
							return execcli.Sample{Elapsed: time.Since(start), Traffic: ex.Traffic(), StageWait: ex.StageWait(), Compute: ex.ComputeTime()}, nil
						})
						if err != nil {
							team.Close()
							return err
						}
						cell.Record(rec.Add(a.Name(), mode.String(), p, order, q, s.Elapsed), s, mode, nchips, opt)
					}
				}
			}
		}
		team.Close()
	}
	return execcli.Summarize(rec, path)
}
