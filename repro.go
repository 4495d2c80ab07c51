// Package repro is the public facade of the reproduction of
//
//	Jacquelin, Marchal, Robert — "Complexity analysis and performance
//	evaluation of matrix product on multicore architectures"
//	(LIP RRLIP2009-09 / ICPP 2009).
//
// It re-exports the stable surface of the internal packages so that a
// downstream user needs a single import:
//
//	sim, _ := repro.NewSimulator(repro.QuadCore(32, false))
//	res, _ := sim.RunByName("Tradeoff", repro.Square(96), repro.SettingLRU50)
//	fmt.Println(res.MS, res.MD, res.Tdata)
//
// The four layers underneath are:
//
//   - the machine model and cache simulator (capacities in q×q blocks,
//     IDEAL and LRU replacement, inclusive two-level hierarchy);
//   - the schedule IR (internal/schedule): each algorithm is written
//     once, as a loop nest emitting a backend-agnostic program of
//     Stage/Compute/Unstage operations over block coordinates;
//   - the simulator backend, which replays a program against the
//     hierarchy and counts misses next to the closed-form predictions
//     and §2.3 lower bounds;
//   - the real-execution backend, which replays the *same* program with
//     one goroutine per core on float64 data (their access streams are
//     asserted identical by the equivalence tests).
package repro

import (
	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/tune"
)

// Machine is the multicore model: p cores, shared cache of CS blocks
// (bandwidth σS) above p distributed caches of CD blocks (bandwidth σD).
type Machine = machine.Machine

// Config is one of the paper's (q, CS, CD) cache configurations.
type Config = machine.Config

// Workload is the block-dimension triple (M, N, Z) of one product.
type Workload = algo.Workload

// Result carries the metrics of one simulated run.
type Result = algo.Result

// Algorithm is one simulated matrix-product strategy.
type Algorithm = algo.Algorithm

// Simulator runs algorithms on one machine configuration.
type Simulator = core.Simulator

// Comparison is a side-by-side result table with lower-bound ratios.
type Comparison = core.Comparison

// RunSetting names the experimental settings (IDEAL, LRU, LRU-2x,
// LRU-50).
type RunSetting = core.RunSetting

// BoundsReport carries every §2.3 lower bound for one workload.
type BoundsReport = bounds.Report

// Triple bundles real float64 operands for the executor.
type Triple = matrix.Triple

// ExecMode selects how the real executor realises staging: ExecPacked
// copies blocks into per-core packed arenas (the default), ExecView
// reads strided tile views with staging as probe-only hints (the
// benchmark baseline), ExecShared realises the full two-level
// hierarchy — blocks flow memory → shared arena → per-core arenas, and
// the MS/MD streams are physically distinct and separately counted —
// and ExecSharedPipelined is ExecShared with a stager goroutine
// overlapping the memory↔shared stream with compute (identical
// traffic, only the timing overlaps).
type ExecMode = parallel.Mode

// Executor modes.
const (
	ExecPacked          = parallel.ModePacked
	ExecView            = parallel.ModeView
	ExecShared          = parallel.ModeShared
	ExecSharedPipelined = parallel.ModeSharedPipelined
)

// The four run settings of the paper's evaluation.
const (
	SettingIdeal = core.SettingIdeal
	SettingLRU   = core.SettingLRU
	SettingLRU2x = core.SettingLRU2x
	SettingLRU50 = core.SettingLRU50
)

// NewSimulator validates the machine and returns a simulator for it.
func NewSimulator(m Machine) (*Simulator, error) { return core.New(m) }

// Square returns the square workload of order n blocks.
func Square(n int) Workload { return algo.Square(n) }

// Algorithms returns the six algorithms of the paper in evaluation
// order: Shared Opt., Distributed Opt., Tradeoff, Outer Product, Shared
// Equal, Distributed Equal.
func Algorithms() []Algorithm { return algo.All() }

// ExtendedAlgorithms returns the paper's six algorithms plus the
// registered comparators (the cache-oblivious recursion by default).
func ExtendedAlgorithms() []Algorithm { return algo.Extended() }

// AlgorithmNames returns the display names of the extended set, in
// registry order. Every name is accepted by both the simulator and the
// real executor.
func AlgorithmNames() []string { return algo.Names() }

// AlgorithmByName resolves a display name to its algorithm.
func AlgorithmByName(name string) (Algorithm, error) { return algo.ByName(name) }

// PaperConfigs returns the three cache configurations of §4.1
// (q ∈ {32, 64, 80}).
func PaperConfigs() []Config { return machine.PaperConfigs() }

// QuadCore returns the paper's "realistic quad-core" machine for block
// size q (32, 64 or 80); pessimistic selects the half-cache distributed
// capacity. It panics on an unknown q — use machine.FindConfig for a
// checked lookup.
func QuadCore(q int, pessimistic bool) Machine {
	cfg, err := machine.FindConfig(q)
	if err != nil {
		panic(err)
	}
	return cfg.Machine(machine.PaperCores, pessimistic)
}

// Bounds evaluates the §2.3 lower bounds for an m×n×z block product on
// machine mach.
func Bounds(mach Machine, w Workload) BoundsReport {
	return bounds.NewReport(mach, w.M, w.N, w.Z)
}

// NewTriple allocates and fills real operands for an (m×z)·(z×n) block
// product with tile size q.
func NewTriple(mBlocks, nBlocks, zBlocks, q int, seed uint64) (*Triple, error) {
	return matrix.NewTriple(mBlocks, nBlocks, zBlocks, q, seed)
}

// Multiply executes algorithm name for real on the triple's data using
// one goroutine per core of mach, in the given executor mode and with
// the given tuning. ExecPacked with the zero Tuning stages blocks into
// per-core packed arenas sized from the machine's distributed-cache
// capacity, with the optimizer off.
func Multiply(name string, t *Triple, mach Machine, mode ExecMode, tun Tuning) error {
	return parallel.Multiply(name, t, mach, mode, tun, nil)
}

// NewTripleDims allocates operands by coefficient dimensions, allowing
// ragged edges (dimensions that are not multiples of q).
func NewTripleDims(rows, cols, inner, q int, seed uint64) (*Triple, error) {
	return matrix.NewTripleDims(rows, cols, inner, q, seed)
}

// Verify recomputes the triple's product sequentially and returns the
// maximum absolute deviation of C.
func Verify(t *Triple) (float64, error) { return parallel.Verify(t) }

// Tuning bundles the executor's machine-local tunables: the pipeline
// lookahead depth of ExecSharedPipelined and the schedule optimizer
// switch. The zero value is the untuned default (depth-1 lookahead,
// optimizer off); Tuning{Lookahead: k} sets a depth. Tunings are pure
// timing knobs — the pipeline plan is re-verified at every depth and
// the optimizer keeps results bitwise identical — so they can never
// change a result.
type Tuning = parallel.Tuning

// DefaultTuning loads the machine-local tuning flywheel's product entry
// from a TUNE.json written by cmd/tune. A file measured on a different
// host, or carrying no product entry, resolves to the zero (untuned)
// Tuning without error — a foreign tuning is silently not applied, it
// can only cost performance, never correctness. A missing or malformed
// file is an error.
func DefaultTuning(path string) (Tuning, error) {
	f, err := tune.Load(path)
	if err != nil {
		return Tuning{}, err
	}
	if !f.MatchesHost() || f.Gemm == nil {
		return Tuning{}, nil
	}
	return f.Gemm.Tuning()
}
