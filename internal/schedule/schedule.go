// Package schedule defines the backend-agnostic schedule IR that every
// algorithm of the reproduction compiles to: a per-core program of
// Stage/Unstage/Apply operations over q×q block coordinates, framed by
// shared-cache staging and parallel regions. Apply runs one typed block
// kernel (see Kernel) on staged operands — the matrix product's MulAdd,
// and the factor/solve/update kernels of blocked LU — each kernel
// declaring its read/write access pattern exactly once, for every
// backend.
//
// One schedule, two (or more) backends. An algorithm's loop nest is
// written exactly once, as a Program whose Body emits the operation
// stream:
//
//   - the cache simulator (internal/algo.Exec) is a Backend the Body
//     drives directly; it expands each kernel's declared accesses into
//     the MS/MD miss streams of the two-level hierarchy under the IDEAL
//     and LRU policies;
//   - the real executor (internal/parallel.Executor) lowers the program
//     once into a Trace (see Program.Lower) — its driver ops and
//     parallel regions in program order, one op slice per core — and
//     dispatches the same kernels onto worker goroutines computing on
//     float64 blocks: packed arena-resident tiles in the staging modes,
//     strided views in ModeView.
//
// Lowering numbers every line the program touches with a dense LineID,
// and the trace's ops carry IDs, not lines. The compile passes read the
// same trace: Optimize rewrites it into a compacted one, and Measure and
// the phase planners walk it, all keeping their per-line state in
// slices indexed by ID; the executor's arenas find their slots by ID the
// same way. Lower numbers lines through a matrix.BlockIndex, which
// hashes only lines with negative or far-out coordinates. Because both
// backends consume the identical stream, "the executor runs the
// schedule the simulator analysed" is an invariant checked by tests,
// not a convention maintained by hand — and it now holds for any
// workload expressible in the kernel set, not just C = A×B.
package schedule

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/matrix"
)

// Line identifies one q×q block of an operand matrix — the cache-line
// unit of the whole model.
type Line = matrix.BlockCoord

// LineA, LineB and LineC name blocks of the three operands of C = A×B.
func LineA(i, k int) Line { return Line{Matrix: matrix.MatA, Row: i, Col: k} }
func LineB(k, j int) Line { return Line{Matrix: matrix.MatB, Row: k, Col: j} }
func LineC(i, j int) Line { return Line{Matrix: matrix.MatC, Row: i, Col: j} }

// CoreSink receives one core's operation stream inside a parallel
// region, in program order.
//
// Apply runs one typed block kernel on staged operands; its access
// pattern — each source read in order, then the destination written —
// is declared once by the Kernel (see Kernel.Accesses) and expanded
// identically by every backend. Compute(i, j, k) is the historical
// GEMM shorthand: implementations define it as
// Apply(MulAdd, C[i,j], A[i,k], B[k,j]), so the seven product emitters
// read exactly as the paper's pseudocode while flowing through the same
// generalized op. Read and Write are the raw accesses an Apply expands
// to; schedules for irregular access patterns may emit them directly,
// but only Apply (and hence Compute) carries arithmetic for the real
// executor.
type CoreSink interface {
	// Stage loads l into this core's distributed cache (explicit under
	// IDEAL, an ordinary read under LRU, a cache hint for real hardware).
	Stage(l Line)
	// Unstage evicts l from this core's distributed cache, merging a
	// dirty copy upward. It is the omniscient policy's privilege: LRU
	// backends and real executors treat it as a no-op, and it is
	// invisible to probes.
	Unstage(l Line)
	// Read records a raw read of l without arithmetic.
	Read(l Line)
	// Write records a raw write of l without arithmetic.
	Write(l Line)
	// Apply runs kernel k on dest and srcs (len(srcs) == k.Arity()),
	// reading the sources and writing the destination in place.
	Apply(k Kernel, dest Line, srcs ...Line)
	// Compute performs C[i,j] += A[i,k]·B[k,j]: shorthand for
	// Apply(MulAdd, LineC(i,j), LineA(i,k), LineB(k,j)).
	Compute(i, j, k int)
}

// Backend consumes a schedule's operation stream. Implementations decide
// what Stage means (simulated load, prefetch hint, …) and how parallel
// regions are ordered or interleaved; the per-core streams themselves
// are backend-independent.
type Backend interface {
	// StageShared loads l from memory into the shared cache.
	StageShared(l Line)
	// UnstageShared evicts l from the shared cache (omniscient policies
	// only; a no-op elsewhere).
	UnstageShared(l Line)
	// Parallel opens one "foreach core c = 1..p in parallel" region:
	// body is invoked once per core to emit that core's stream. Cores
	// write disjoint C blocks within a region (the algorithms guarantee
	// this by construction), so backends may run the streams
	// concurrently.
	Parallel(body func(core int, ops CoreSink))
}

// Params carries the tuning parameters an algorithm derived from the
// declared machine, for reporting. Fields irrelevant to an algorithm
// stay zero.
type Params struct {
	Lambda   int // Algorithm 1's shared C-tile edge λ
	Mu       int // Algorithms 2–3's distributed C-tile edge µ
	Alpha    int // Algorithm 3's shared C-tile edge α
	Beta     int // Algorithm 3's A/B panel depth β
	Edge     int // Toledo equal-thirds tile edge e or d
	GridRows int // core-grid rows of the 2-D cyclic layouts
	GridCols int // core-grid columns
}

// Resources records the cache capacities of the declared machine a
// program was tuned for, in q×q blocks, and its chip count. Backends that realise staging
// physically (the executor's per-core arenas) validate the schedule's
// measured working set against these claims before committing memory;
// see Measure and WorkingSet.Fits. A zero value means "not declared"
// and disables the corresponding check.
type Resources struct {
	SharedBlocks int // declared PER-CHIP shared-cache capacity CS, in blocks
	CoreBlocks   int // declared per-core capacity CD, in blocks
	// Chips is the declared chip count: the program's cores are split
	// into Chips equal contiguous groups, each owning its own shared
	// cache of SharedBlocks blocks. Zero or one means the paper's
	// single-shared-cache machine.
	Chips int
}

// ChipCount normalises the Chips field (zero ⇒ single chip).
func (r Resources) ChipCount() int {
	if r.Chips < 1 {
		return 1
	}
	return r.Chips
}

// Program is one algorithm's schedule bound to a machine and workload:
// the single source of truth that every backend replays.
type Program struct {
	// Algorithm is the display name used in the paper's figures.
	Algorithm string
	// Cores is the number of per-core streams every parallel region
	// emits; backends must run with exactly this many cores.
	Cores int
	// Params echoes the tuning parameters derived from the declared
	// machine.
	Params Params
	// Resources echoes the declared machine's cache sizes so backends
	// can check the schedule's working set against what it claims.
	Resources Resources
	// DemandDriven marks algorithms with no staging discipline (Outer
	// Product, Cache Oblivious): they cannot be handed to an omniscient
	// policy, so simulators always run them under demand-driven LRU.
	DemandDriven bool
	// Home assigns each shared-staged line its home chip — the chip
	// whose shared cache (arena) the block lives in while staged. Cores
	// on other chips reading the block pull it over the inter-chip
	// stream. A nil Home places every line on chip 0, which on a
	// single-chip machine is exactly the paper's model; backends must
	// resolve homes through HomeOf so nil and out-of-range policies
	// degrade identically everywhere.
	Home func(l Line) int
	// Body drives a backend through the schedule's operation stream.
	Body func(b Backend)

	// trace is the lowered form a program returned by Optimize or
	// Lowered carries; its Body replays it. Source programs leave it
	// nil and are lowered afresh by every Lower. The trace caches every
	// line's HomeOf, so a program carrying one keeps its Home and
	// Resources.
	trace *Trace
}

// HomeOf resolves the home chip of l under this program's placement
// policy, clamped to the declared chip count. Every consumer — the
// simulator, Measure, the executor — must use this single
// resolution so "the executor runs the placement the simulator
// analysed" stays an invariant rather than a convention.
func (p *Program) HomeOf(l Line) int {
	chips := p.Resources.ChipCount()
	if p.Home == nil || chips == 1 {
		return 0
	}
	h := p.Home(l)
	if h < 0 {
		return 0
	}
	if h >= chips {
		return chips - 1
	}
	return h
}

// ChipOfCore returns the chip owning core c under this program's
// declared topology (machine.ChipOfCore's blocked partition).
func (p *Program) ChipOfCore(c int) int {
	return machine.ChipOfCore(c, p.Cores, p.Resources.ChipCount())
}

// Emit drives backend b through the program's operation stream: it
// calls the Body, which for a program carrying a trace replays it.
func (p *Program) Emit(b Backend) error {
	if p.Body == nil {
		return fmt.Errorf("schedule: program %q has no body", p.Algorithm)
	}
	p.Body(b)
	return nil
}

// Split partitions length items into parts nearly equal chunks and
// returns the half-open range [lo, hi) of chunk idx. Earlier chunks get
// the larger shares, matching the paper's λ/p row split when p divides λ
// and degrading gracefully otherwise.
func Split(length, parts, idx int) (lo, hi int) {
	base := length / parts
	rem := length % parts
	lo = idx*base + min(idx, rem)
	hi = lo + base
	if idx < rem {
		hi++
	}
	return lo, hi
}
