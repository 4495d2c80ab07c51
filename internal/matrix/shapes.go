package matrix

// This file is the executor's kernel dispatch: the hot tile kernels —
// MulAdd/MulSub, whose full blocks run the AVX-512 4×16 or AVX2 4×8
// body where the CPU has one and whose remainder runs the 2×3 Go
// register tile, FactorTile and both Trsm solves in their
// four-row/four-column form — reached through a KernelConfig. The paper's model prices a tile kernel at its
// flop count and assumes it runs at machine speed ("to harness the
// power of BLAS routines"). The vector bodies are chosen by the hardware
// alone (CPUID, the architecture and the race build constraint), and
// the 2×3 Go tile beat the spilling 4×4 tile and the 8×4 and 8×8 tiles
// in paired rounds, so there is one kernel set rather than a tunable.
//
// Every kernel is pinned bitwise-identical to its reference kernel
// (MulAdd's i-k-j loop, plain FactorTile, the plain Trsm solves): each
// C element receives its k products in ascending order starting from
// the prior value, each product and each sum rounded on its own, each
// LU update element is touched exactly once per pivot step, and each
// Trsm row/column accumulates in the reference order. The register
// blocking and the vector bodies can therefore never change a result —
// not the sequential/parallel bitwise equality, not the sim↔exec
// stream equivalence — only the time it takes to produce it.

// Shape is the type of Shape4x4, KernelConfig's only field value.
type Shape uint8

// Shape4x4 is KernelConfig's only shape value. It no longer names the
// register tile, which is 4×16 in the AVX-512 body, 4×8 in the AVX2
// body and 2×3 in the Go tile of MulAddUnrolled and MulSubUnrolled.
// The identifier stays only because
// the repository benchmark (perfbench) compiles
// matrix.KernelConfig{Shape: matrix.Shape4x4}; it goes when
// KernelConfig does.
const Shape4x4 Shape = 0

// KernelConfig is the kernel set the executor's dispatch runs. Its zero
// value is the only configuration: MulAdd and MulSub run
// MulAddUnrolled and MulSubUnrolled (AVX-512 4×16 and AVX2 4×8 blocks
// where the CPU has them, the 2×3 Go tile elsewhere), FactorTile and
// the Trsm solves their four-row or four-column blocking. It stays,
// with its Shape field, only because perfbench compiles it.
type KernelConfig struct {
	Shape Shape
}

// MulAdd computes C += A×B with MulAddUnrolled, bitwise identical to
// the reference MulAdd.
//
//repro:kernel
func (KernelConfig) MulAdd(c, a, b *Dense) error { return MulAddUnrolled(c, a, b) }

// MulSub computes C -= A×B with MulSubUnrolled, bitwise identical to
// the reference i-k-j MulSub loop.
//
//repro:kernel
func (KernelConfig) MulSub(c, a, b *Dense) error { return MulSubUnrolled(c, a, b) }

// FactorTile factors the square tile in place, four trailing rows
// sharing each pivot row load. Bitwise identical to the reference
// FactorTile.
//
//repro:kernel
func (KernelConfig) FactorTile(d *Dense) error { return factorTileRB4(d) }

// TrsmUpperRight solves X·U = B in place, blocking four rows of B so
// the U column loads are shared. Bitwise identical to the reference
// solve.
//
//repro:kernel
func (KernelConfig) TrsmUpperRight(diag, b *Dense) error { return trsmUpperRightRB4(diag, b) }

// TrsmLowerLeftUnit solves L·X = B in place, blocking four columns of
// B so the L row loads are shared. Bitwise identical to the reference
// solve.
//
//repro:kernel
func (KernelConfig) TrsmLowerLeftUnit(diag, b *Dense) error { return trsmLowerLeftRB4(diag, b) }
