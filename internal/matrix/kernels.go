package matrix

import "fmt"

// This file holds the numerical kernels. The paper's algorithms call a
// sequential DGEMM on q×q tiles ("to harness the power of BLAS routines");
// here those calls resolve to MulAddUnrolled, whose full blocks run an
// amd64 assembly body (kernels_amd64.s) — 4×16 on CPUs with AVX-512F,
// 4×8 on CPUs with AVX2 — and whose remainder runs a 2×3 Go register
// tile. MulAdd, the plain i-k-j loop, and MulNaive serve as the
// independent references for verification.

// MulNaive computes C += A×B with the textbook triple loop (i, j, k).
// It is deliberately simple and is used as the correctness oracle.
func MulNaive(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		for j := 0; j < b.cols; j++ {
			var s float64
			for k := 0; k < a.cols; k++ {
				s += a.data[i*a.stride+k] * b.data[k*b.stride+j]
			}
			c.data[i*c.stride+j] += s
		}
	}
	return nil
}

// MulAdd computes C += A×B using the i-k-j loop order so the innermost
// loop streams rows of B and C. It is the reference the tile kernels
// are pinned against; the executor's tile computes and the sequential
// MulBlocked baseline run MulAddUnrolled. It performs exactly 2·m·n·k
// flops: rows of A containing zeros are not skipped, so the kernel's
// work — and any GFLOP/s number derived from it — depends only on the
// shapes, never on the data (a sparse variant would belong in a kernel
// of its own).
//
//repro:kernel
func MulAdd(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.stride : i*a.stride+a.cols]
		crow := c.data[i*c.stride : i*c.stride+c.cols]
		for k, av := range arow {
			brow := b.data[k*b.stride : k*b.stride+b.cols]
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return nil
}

// MulAddUnrolled computes C += A×B as the executor's q×q tile kernel in
// every mode — over strided views in ModeView and over the cached
// contiguous headers of arena-resident tiles in the staging modes — so
// packed-vs-view ratios measure data layout, not loop shape. The
// widest assembly body the CPU runs (see level) takes the full blocks
// of C: on AVX-512F CPUs the body mulAdd4x16 runs every full 4×16 block
// and the AVX2 body mulAdd4x8 a remaining 4×8 strip; on AVX2 CPUs
// mulAdd4x8 runs every full 4×8 block. The 2×3 Go register tile
// mulAdd2x3 runs the strips the blocks leave — the last n mod 8
// columns and m mod 4 rows — and is the whole kernel on other
// architectures, on CPUs without AVX2 and in race builds. Every path gives every C element its k products in
// ascending order starting from the prior C value, each product and
// each sum rounded on its own, so the result is bitwise identical to
// MulAdd's on any path, and the flop count stays exactly 2·m·n·k
// regardless of the data.
//
//repro:kernel
func MulAddUnrolled(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	mulTiled(c, a, b, false)
	return nil
}

// kernelLevel names the tile kernels' vector bodies, narrowest first.
type kernelLevel uint8

const (
	levelGo     kernelLevel = iota // the 2×3 Go register tile alone
	levelAVX2                      // 4×8 blocks through the AVX2 body
	levelAVX512                    // 4×16 blocks through the AVX-512F body
)

// level is the widest vector body MulAddUnrolled and MulSubUnrolled
// run. Only the amd64 init sets it, once, from CPUID, and never in race
// builds: the race detector does not see the loads and stores assembly
// makes, and the tile reads and writes are what its concurrency tests
// check. Tests step it through every level up to the CPU's to run each
// path on the same inputs; nothing else writes it.
var level kernelLevel

// mulTiled runs C += A×B, or C -= A×B when sub is set, for
// MulAddUnrolled and MulSubUnrolled: the full blocks of C through the
// vector bodies up to level, and everything else through the 2×3 Go
// tile. Assembly has no bounds checks, so before the calls it indexes
// the last element the blocks touch in each operand — strides are never
// negative — and a malformed header panics here instead of reaching
// outside its slice. The edge strips run on sub-headers that stay on
// the stack.
//
//repro:kernel
func mulTiled(c, a, b *Dense, sub bool) {
	m, n, k := a.rows, b.cols, a.cols
	m4, n8 := m&^3, n&^7
	if level == levelGo || m4 == 0 || n8 == 0 || k == 0 {
		mulTile2x3(c, a, b, sub)
		return
	}
	_ = c.data[(m4-1)*c.stride+n8-1]
	_ = a.data[(m4-1)*a.stride+k-1]
	_ = b.data[(k-1)*b.stride+n8-1]
	n16 := 0
	if level == levelAVX512 {
		n16 = n &^ 15
	}
	switch {
	case n16 > 0 && sub:
		mulSub4x16(&c.data[0], &a.data[0], &b.data[0], m4, n16, k, c.stride, a.stride, b.stride)
	case n16 > 0:
		mulAdd4x16(&c.data[0], &a.data[0], &b.data[0], m4, n16, k, c.stride, a.stride, b.stride)
	}
	switch {
	case n16 < n8 && sub:
		mulSub4x8(&c.data[n16], &a.data[0], &b.data[n16], m4, n8-n16, k, c.stride, a.stride, b.stride)
	case n16 < n8:
		mulAdd4x8(&c.data[n16], &a.data[0], &b.data[n16], m4, n8-n16, k, c.stride, a.stride, b.stride)
	}
	if n8 < n {
		cr := Dense{rows: m4, cols: n - n8, stride: c.stride, data: c.data[n8:]}
		ar := Dense{rows: m4, cols: k, stride: a.stride, data: a.data}
		br := Dense{rows: k, cols: n - n8, stride: b.stride, data: b.data[n8:]}
		mulTile2x3(&cr, &ar, &br, sub)
	}
	if m4 < m {
		cb := Dense{rows: m - m4, cols: n, stride: c.stride, data: c.data[m4*c.stride:]}
		ab := Dense{rows: m - m4, cols: k, stride: a.stride, data: a.data[m4*a.stride:]}
		mulTile2x3(&cb, &ab, b, sub)
	}
}

// mulTile2x3 runs the Go register tile of C += A×B, or of C -= A×B when
// sub is set.
//
//repro:kernel
func mulTile2x3(c, a, b *Dense, sub bool) {
	if sub {
		mulSub2x3(c, a, b)
	} else {
		mulAdd2x3(c, a, b)
	}
}

// mulAdd2x3 is MulAdd restructured as a 2×3 register-blocked
// micro-kernel: each 2×3 tile of C is held in six scalar accumulators
// while the k loop loads two A values and, one at a time, the three B
// values of row k, so the inner loop carries no C loads or stores. Six
// accumulators, two A values, one B value and the product temporaries
// fit in the 15 XMM registers Go's amd64 ABI leaves (X15 is the fixed
// zero); a 4×4 tile needs about twenty, and its k loop moves a dozen
// of them through the stack on every step. Columns left over by the
// 3-wide tiles finish two rows at a time, and an odd last row one
// element at a time. The shapes must already agree (checkMul).
//
//repro:kernel
func mulAdd2x3(c, a, b *Dense) {
	m, n, kk := a.rows, b.cols, a.cols
	bd, bs := b.data, b.stride
	i := 0
	for ; i+2 <= m; i += 2 {
		a0 := a.data[i*a.stride : i*a.stride+kk]
		a1 := a.data[(i+1)*a.stride:][:len(a0)]
		c0 := c.data[i*c.stride : i*c.stride+n]
		c1 := c.data[(i+1)*c.stride:][:len(c0)]
		j := 0
		for ; j+3 <= n; j += 3 {
			cr0, cr1 := c0[j:j+3:j+3], c1[j:j+3:j+3]
			s00, s01, s02 := cr0[0], cr0[1], cr0[2]
			s10, s11, s12 := cr1[0], cr1[1], cr1[2]
			off := j
			for k, av0 := range a0 {
				av1 := a1[k]
				brow := bd[off : off+3 : off+3]
				bv := brow[0]
				s00 += av0 * bv
				s10 += av1 * bv
				bv = brow[1]
				s01 += av0 * bv
				s11 += av1 * bv
				bv = brow[2]
				s02 += av0 * bv
				s12 += av1 * bv
				off += bs
			}
			cr0[0], cr0[1], cr0[2] = s00, s01, s02
			cr1[0], cr1[1], cr1[2] = s10, s11, s12
		}
		for ; j < n; j++ {
			s0, s1 := c0[j], c1[j]
			off := j
			for k, av0 := range a0 {
				bv := bd[off]
				s0 += av0 * bv
				s1 += a1[k] * bv
				off += bs
			}
			c0[j], c1[j] = s0, s1
		}
	}
	for ; i < m; i++ {
		arow := a.data[i*a.stride : i*a.stride+kk]
		crow := c.data[i*c.stride : i*c.stride+n]
		for j := range crow {
			s := crow[j]
			off := j
			for _, av := range arow {
				s += av * bd[off]
				off += bs
			}
			crow[j] = s
		}
	}
}

// MulBlocked computes C += A×B by tiling all three operands with tile
// size q and invoking MulAddUnrolled on each tile triple. It is the
// sequential baseline the parallel executor is compared against
// (parallel.Reference, the CLIs' speedup column), so it runs the same
// tile kernel as the executor: a parallel-over-sequential ratio then
// compares schedules, not a vector kernel with a scalar one. Each call
// is bitwise identical to MulAdd's.
func MulBlocked(c, a, b *Dense, q int) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	if q <= 0 {
		return fmt.Errorf("matrix: tile size q=%d must be positive", q)
	}
	for i := 0; i < c.rows; i += q {
		ri := min(q, c.rows-i)
		for k := 0; k < a.cols; k += q {
			rk := min(q, a.cols-k)
			av := a.View(i, k, ri, rk)
			for j := 0; j < c.cols; j += q {
				rj := min(q, c.cols-j)
				if err := MulAddUnrolled(c.View(i, j, ri, rj), av, b.View(k, j, rk, rj)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// AXPYBlock computes C += a*B where a is a scalar and B, C are equally
// shaped tiles. This is the "Cc ← Cc + a×Bc" elementary update of
// Algorithms 1–3 when the manipulated elements are single coefficients;
// at block granularity the scalar generalises to a tile and MulAdd is
// used instead.
func AXPYBlock(c, b *Dense, a float64) error {
	if c.rows != b.rows || c.cols != b.cols {
		return fmt.Errorf("matrix: axpy %dx%d += a*%dx%d: %w", c.rows, c.cols, b.rows, b.cols, ErrShape)
	}
	for i := 0; i < c.rows; i++ {
		crow := c.data[i*c.stride : i*c.stride+c.cols]
		brow := b.data[i*b.stride : i*b.stride+b.cols]
		for j := range crow {
			crow[j] += a * brow[j]
		}
	}
	return nil
}

func checkMul(c, a, b *Dense) error {
	if a.cols != b.rows || c.rows != a.rows || c.cols != b.cols {
		return fmt.Errorf("matrix: multiply C(%dx%d) += A(%dx%d)*B(%dx%d): %w",
			c.rows, c.cols, a.rows, a.cols, b.rows, b.cols, ErrShape)
	}
	return nil
}
