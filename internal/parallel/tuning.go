package parallel

import "repro/internal/matrix"

// Tuning bundles the executor's settings: the tile kernels, the
// pipeline lookahead depth and the schedule optimizer switch. The zero
// value is the plain executor — depth-1 lookahead, no optimizer. The
// commands set only Optimize and plan at depth 1, which measured within
// noise of every deeper depth (README); Lookahead stays because the
// repository benchmark (perfbench) names it, and a caller plans deeper
// only when it sets it above 1. None of the settings can change a
// result, only its timing, because the pipeline plan is re-verified at
// every depth.
type Tuning struct {
	// Kernels is the tile-kernel set the executor dispatches; its one
	// value is MulAddUnrolled/MulSubUnrolled (AVX-512 or AVX2 blocks
	// where the CPU has them, the 2×3 Go tile elsewhere) with the
	// four-row LU kernels (see matrix.KernelConfig).
	Kernels matrix.KernelConfig
	// Lookahead is the pipeline planning depth k of ModeSharedPipelined:
	// a stage may prefetch up to k regions ahead of its gap. 0 means the
	// default depth 1; other modes ignore it.
	Lookahead int
	// Optimize runs every staged program through the residency-aware
	// schedule optimizer (schedule.Optimize) before validation and
	// replay: provably dead unstage/restage pairs are elided at both
	// cache levels, so the executed MS/MD streams shrink while results
	// stay bitwise identical. ModeView and demand-driven programs are
	// unaffected. Like the other settings it cannot change a result,
	// only its traffic and timing.
	Optimize bool
}

// DefaultTuning is the zero configuration: depth 1, optimizer off.
var DefaultTuning = Tuning{}

// SetTuning reconfigures the executor's settings. It drops the
// compiled program (optimizer rewrite, validation and phase plan),
// because a new lookahead needs a new plan and the optimizer switch a
// new stream; the next Run recompiles, so a caller timing Runs after
// SetTuning times one compile with the first of them.
func (ex *Executor) SetTuning(t Tuning) {
	ex.kernels = t.Kernels
	ex.lookahead = t.Lookahead
	ex.optimize = t.Optimize
	ex.comp = nil
}

// Tuning returns the executor's current settings.
func (ex *Executor) Tuning() Tuning {
	return Tuning{Kernels: ex.kernels, Lookahead: ex.lookahead, Optimize: ex.optimize}
}

// lookaheadDepth resolves the planning depth: the zero value means the
// classic depth-1 double buffer.
func (ex *Executor) lookaheadDepth() int {
	if ex.lookahead < 1 {
		return 1
	}
	return ex.lookahead
}
