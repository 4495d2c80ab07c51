package parallel

import "repro/internal/matrix"

// Tuning bundles the executor's settings: the tile kernels, the
// pipeline lookahead and the schedule optimizer switch. The zero value
// is the plain executor — the depth-1 double buffer, no optimizer. The
// commands set only Optimize. None of the settings can change a result,
// only its timing, because every phase plan is proved before it runs.
type Tuning struct {
	// Kernels is the tile-kernel set the executor dispatches; its one
	// value is MulAddUnrolled/MulSubUnrolled (AVX-512 or AVX2 blocks
	// where the CPU has them, the 2×3 Go tile elsewhere) with the
	// four-row LU kernels (see matrix.KernelConfig).
	Kernels matrix.KernelConfig
	// Lookahead is the pipeline planning depth of ModeSharedPipelined.
	// The executor plans the depth-1 double buffer only, which measured
	// within noise of every deeper depth (README, "Pipeline depth"): 0
	// and 1 both select it, and any other value makes Run fail before it
	// executes anything. Other modes ignore it. The field stays because
	// the repository benchmark (perfbench) sets it.
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

// SetTuning replaces the executor's settings with t. It drops the
// compiled program (optimizer rewrite, validation and phase plan),
// because the optimizer switch needs a new stream; the next Run
// recompiles, so a caller timing Runs after SetTuning times one compile
// with the first of them. A Lookahead other than 0 or 1 is rejected by
// that Run in ModeSharedPipelined, not here.
func (ex *Executor) SetTuning(t Tuning) {
	ex.tun = t
	ex.comp = nil
}

// Tuning returns the executor's current settings.
func (ex *Executor) Tuning() Tuning { return ex.tun }
