// Command tune measures the machine-local optimum of the executor's
// tunables — block edge q and pipeline lookahead depth — and writes the
// winners to TUNE.json, keyed by the host's identity (CPU model,
// GOMAXPROCS, OS/arch) so the record never silently applies to a
// different machine.
//
// Two workloads are swept, each over the (q × lookahead) grid: the
// paper's shared-optimal product schedule and the blocked LU
// factorisation, both in ModeSharedPipelined (the mode every knob
// affects). After one untimed warm-up round, the repetitions run in
// rounds, each round timing every grid point once, and each point is
// rated by the median GFLOP/s of its repetitions — a rate, not a time,
// because the product's work grows with the block edge. The default
// point (lookahead 1 at the first block edge) is kept unless another
// point's median rate beats the default's by more than the default's
// own spread (max − min of its repetitions' rates), so a win inside
// the host's noise never changes the configuration. cmd/gemm and
// cmd/lufact load the file at startup when -tune points at it; explicit
// flags always win over the file, and the file only applies when its
// host stanza matches the running machine.
//
// Neither knob can change a computed result — the pipeline plan is
// re-verified at every depth — so a stale TUNE.json costs performance,
// never correctness.
//
// Examples:
//
//	tune                                  # full default sweep, writes TUNE.json
//	tune -order 8 -n 512 -reps 5 -out TUNE.json
//	tune -qs 16,32 -lookaheads 1,2,3
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/tune"
)

func main() {
	var (
		out        = flag.String("out", "TUNE.json", "output file")
		algoName   = flag.String("algo", "Shared Opt.", "product algorithm swept for the gemm entry")
		order      = flag.Int("order", 8, "gemm workload edge in blocks")
		n          = flag.Int("n", 256, "LU matrix order in coefficients")
		cores      = flag.Int("p", runtime.NumCPU(), "worker goroutines (recorded as the tuning's GOMAXPROCS context)")
		qs         = flag.String("qs", "32", "comma-separated block edges to sweep; the first is the default's")
		lookaheads = flag.String("lookaheads", "1,2,3", "comma-separated pipeline lookahead depths to sweep; must include the default 1")
		reps       = flag.Int("reps", 3, "rounds of timed repetitions (each candidate rated by its median GFLOP/s)")
		seed       = flag.Uint64("seed", 1, "input matrix seed")
	)
	flag.Parse()

	cfg, err := parseSweep(*qs, *lookaheads)
	if err == nil {
		cfg.algoName, cfg.order, cfg.n = *algoName, *order, *n
		cfg.cores, cfg.reps, cfg.seed = *cores, *reps, *seed
		err = runSweep(cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tune:", err)
		os.Exit(1)
	}
}

type sweepConfig struct {
	algoName    string
	order, n    int
	cores, reps int
	seed        uint64
	qs          []int
	lookaheads  []int
}

func parseSweep(qs, lookaheads string) (sweepConfig, error) {
	var cfg sweepConfig
	for _, s := range strings.Split(qs, ",") {
		q, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || q < 1 {
			return cfg, fmt.Errorf("bad block edge %q", s)
		}
		cfg.qs = append(cfg.qs, q)
	}
	for _, s := range strings.Split(lookaheads, ",") {
		k, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || k < 1 {
			return cfg, fmt.Errorf("bad lookahead %q", s)
		}
		cfg.lookaheads = append(cfg.lookaheads, k)
	}
	if !slices.Contains(cfg.lookaheads, 1) {
		return cfg, fmt.Errorf("lookaheads %v lack 1, the default every candidate is measured against", cfg.lookaheads)
	}
	return cfg, nil
}

// candidate is one grid point with the rate of each timed repetition.
type candidate struct {
	params tune.Params
	rates  []float64 // GFLOP/s
}

// median and spread summarise the repetitions' rates: the middle rate
// (the mean of the two middle ones for an even count) and max − min.
func (c *candidate) median() float64 {
	s := slices.Sorted(slices.Values(c.rates))
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

func (c *candidate) spread() float64 {
	return slices.Max(c.rates) - slices.Min(c.rates)
}

func runSweep(cfg sweepConfig, out string) error {
	if cfg.reps < 1 {
		cfg.reps = 1
	}
	if _, err := algo.ByName(cfg.algoName); err != nil {
		return err
	}
	host := tune.CurrentHost()
	fmt.Printf("host: %s, GOMAXPROCS %d, %s %s/%s\n", host.CPUModel, host.GoMaxProcs, host.GoVersion, host.GOOS, host.GOARCH)
	fmt.Printf("sweep: q %v × lookahead %v, median of %d rounds\n\n", cfg.qs, cfg.lookaheads, cfg.reps)

	gemm, err := sweepGemm(cfg)
	if err != nil {
		return err
	}
	luEntry, err := sweepLU(cfg)
	if err != nil {
		return err
	}

	f := &tune.File{
		Host:       host,
		Candidates: len(cfg.qs) * len(cfg.lookaheads),
		Reps:       cfg.reps,
		Gemm:       gemm,
		LU:         luEntry,
	}
	if err := f.WriteFile(out); err != nil {
		return err
	}
	fmt.Printf("\nwrote %s\n", out)
	fmt.Printf("  gemm: q %d lookahead %d  %.2f GFLOP/s (default %.2f)\n",
		gemm.Q, gemm.Lookahead, gemm.GFlops, gemm.BaselineGFlops)
	fmt.Printf("  lu:   q %d lookahead %d  %.2f GFLOP/s (default %.2f)\n",
		luEntry.Q, luEntry.Lookahead, luEntry.GFlops, luEntry.BaselineGFlops)
	return nil
}

// pick times the grid with measure and folds the results into the
// workload's entry. The repetitions run in rounds, each visiting every
// candidate once, so drift on the host lands on all of them alike.
// measure returns a repetition's time and the flops it did; each
// candidate is rated by its median GFLOP/s, so points whose block
// edges do different work still compare fairly. The default point
// (lookahead 1 at the sweep's first block edge) stays the winner
// unless a candidate's median rate beats the default's by more than
// the default's own spread; among those that do, the highest median
// rate wins. The entry records the winner's and the default's median
// rates.
func pick(cfg sweepConfig, name string, measure func(q int, tun parallel.Tuning) (time.Duration, float64, error)) (*tune.Entry, error) {
	var cands []candidate
	for _, q := range cfg.qs {
		for _, k := range cfg.lookaheads {
			cands = append(cands, candidate{params: tune.Params{Q: q, Lookahead: k}})
		}
	}
	// Round 0 is an untimed warm-up, so first-touch costs (arena
	// allocation, page faults, cold caches) land on no candidate.
	for r := 0; r <= cfg.reps; r++ {
		for i := range cands {
			c := &cands[i]
			d, fl, err := measure(c.params.Q, parallel.Tuning{Lookahead: c.params.Lookahead})
			if err != nil {
				return nil, fmt.Errorf("%s q %d lookahead %d: %w", name, c.params.Q, c.params.Lookahead, err)
			}
			if r > 0 {
				c.rates = append(c.rates, fl/max(d, time.Nanosecond).Seconds()/1e9)
			}
		}
	}
	// The default point: lookahead 1 (which parseSweep requires) in the
	// first block edge's row of the grid.
	base := &cands[slices.Index(cfg.lookaheads, 1)]
	winner := base
	for i := range cands {
		c := &cands[i]
		fmt.Printf("%-5s q %-4d lookahead %d  %8.2f GFLOP/s  (spread %.2f)\n",
			name, c.params.Q, c.params.Lookahead, c.median(), c.spread())
		if c.median()-base.median() > base.spread() && c.median() > winner.median() {
			winner = c
		}
	}
	return &tune.Entry{Params: winner.params, GFlops: winner.median(), BaselineGFlops: base.median()}, nil
}

// sweepGemm times the product schedule in ModeSharedPipelined at every
// grid point. Per block edge the triple, program, team and executor are
// built once; repetitions re-zero C and re-run, exactly like cmd/gemm's
// benchmark loop, so the timed region is the executed schedule itself.
func sweepGemm(cfg sweepConfig) (*tune.Entry, error) {
	a, err := algo.ByName(cfg.algoName)
	if err != nil {
		return nil, err
	}
	type rig struct {
		tr   *matrix.Triple
		ex   *parallel.Executor
		prog func() error
	}
	rigs := map[int]*rig{}
	var teams []*parallel.Team
	defer func() {
		for _, t := range teams {
			t.Close()
		}
	}()
	for _, q := range cfg.qs {
		mach := lu.MachineFor(cfg.cores, q)
		tr, err := matrix.NewTriple(cfg.order, cfg.order, cfg.order, q, cfg.seed)
		if err != nil {
			return nil, err
		}
		prog, err := a.Schedule(mach, algo.Workload{M: cfg.order, N: cfg.order, Z: cfg.order})
		if err != nil {
			return nil, err
		}
		team, err := parallel.NewTeam(mach.P)
		if err != nil {
			return nil, err
		}
		teams = append(teams, team)
		ex, err := parallel.NewExecutor(team, tr, nil, parallel.ModeSharedPipelined, mach.CD, mach.CS)
		if err != nil {
			return nil, err
		}
		rigs[q] = &rig{tr: tr, ex: ex, prog: func() error { return ex.Run(prog) }}
	}
	n := cfg.order // in blocks; coefficients vary with q
	return pick(cfg, "gemm", func(q int, tun parallel.Tuning) (time.Duration, float64, error) {
		r := rigs[q]
		r.ex.SetTuning(tun)
		r.tr.C.Dense().Zero()
		start := time.Now()
		if err := r.prog(); err != nil {
			return 0, 0, err
		}
		nc := float64(n * q)
		return time.Since(start), 2 * nc * nc * nc, nil
	})
}

// sweepLU times the blocked factorisation in ModeSharedPipelined at
// every grid point. The input is re-cloned per repetition (the
// factorisation is in-place); the clone is outside the timed region.
func sweepLU(cfg sweepConfig) (*tune.Entry, error) {
	orig := lu.RandomDominant(cfg.n, cfg.seed)
	team, err := parallel.NewTeam(cfg.cores)
	if err != nil {
		return nil, err
	}
	defer team.Close()
	return pick(cfg, "lu", func(q int, tun parallel.Tuning) (time.Duration, float64, error) {
		a := orig.Clone()
		mach := lu.MachineFor(cfg.cores, q)
		start := time.Now()
		if _, err := lu.FactorParallelTuned(a, q, team, parallel.ModeSharedPipelined, mach, tun); err != nil {
			return 0, 0, err
		}
		nc := float64(cfg.n)
		return time.Since(start), 2 * nc * nc * nc / 3, nil
	})
}
