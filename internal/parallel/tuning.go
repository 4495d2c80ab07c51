package parallel

import "repro/internal/matrix"

// Tuning bundles the executor's machine-local tunables: the pipeline
// lookahead depth and the schedule optimizer switch. The zero value
// reproduces the untuned executor exactly — depth-1 lookahead, no
// optimizer — so every existing call site keeps its behaviour until it
// opts in. cmd/tune sweeps the lookahead (with the block edge) and
// TUNE.json persists the winner; none of them can change a result,
// only its timing, because the pipeline plan is re-verified at every
// depth.
type Tuning struct {
	// Kernels is the tile-kernel set the executor dispatches; its one
	// value is the 2×3 register-tiled MulAdd/MulSub with the four-row
	// LU kernels (see matrix.KernelConfig).
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
	// unaffected. Like the other tunables it cannot change a result,
	// only its traffic and timing.
	Optimize bool
}

// DefaultTuning is the untuned configuration.
var DefaultTuning = Tuning{}

// SetTuning reconfigures the executor's tunables. It drops the
// compiled program (optimizer rewrite, validation and phase plan),
// because a new lookahead needs a new plan and the optimizer switch a
// new stream; the next Run recompiles.
func (ex *Executor) SetTuning(t Tuning) {
	ex.kernels = t.Kernels
	ex.lookahead = t.Lookahead
	ex.optimize = t.Optimize
	ex.comp = nil
}

// Tuning returns the executor's current tunables.
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
