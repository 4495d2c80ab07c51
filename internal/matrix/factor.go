package matrix

import (
	"errors"
	"fmt"
	"math"
)

// This file holds the block kernels of the right-looking LU
// factorisation: the in-place factorisation of a diagonal tile and the
// two triangular panel solves, plus the trailing-update MulSub. They are
// the leaves of both the sequential internal/lu.Factor and the
// schedule-driven parallel executor — one arithmetic definition, so the
// two paths are bitwise identical — and, like the product kernels, they
// perform shape-dependent work only: no data-dependent skips, so flop
// counts derive from dimensions alone.

// ErrSingular is returned (wrapped) when a zero or numerically vanishing
// pivot is encountered while factoring a tile.
var ErrSingular = errors.New("matrix: singular to working precision")

// pivotFloor is the smallest admissible absolute pivot.
const pivotFloor = 1e-300

// FactorTile performs the unblocked, unpivoted LU factorisation of the
// square tile d in place (right-looking kij order): afterwards the
// strictly lower triangle holds the unit-lower-triangular L (implicit
// ones on the diagonal) and the upper triangle holds U.
//
//repro:kernel
func FactorTile(d *Dense) error {
	if d.rows != d.cols {
		return fmt.Errorf("matrix: factor %dx%d tile, need square: %w", d.rows, d.cols, ErrShape)
	}
	n := d.rows
	for k := 0; k < n; k++ {
		piv := d.data[k*d.stride+k]
		if math.Abs(piv) < pivotFloor || math.IsNaN(piv) {
			return fmt.Errorf("matrix: pivot %g at local index %d: %w", piv, k, ErrSingular)
		}
		krow := d.data[k*d.stride : k*d.stride+n]
		for i := k + 1; i < n; i++ {
			irow := d.data[i*d.stride : i*d.stride+n]
			l := irow[k] / piv
			irow[k] = l
			for j := k + 1; j < n; j++ {
				irow[j] -= l * krow[j]
			}
		}
	}
	return nil
}

// TrsmUpperRight solves X·U = B in place (B := B·U⁻¹), where U is the
// upper triangle of the factored diagonal tile diag. B must have as many
// columns as diag.
//
//repro:kernel
func TrsmUpperRight(diag, b *Dense) error {
	if diag.rows != diag.cols || b.cols != diag.rows {
		return fmt.Errorf("matrix: trsm B(%dx%d)·U⁻¹ with diag %dx%d: %w",
			b.rows, b.cols, diag.rows, diag.cols, ErrShape)
	}
	n := diag.rows
	for i := 0; i < b.rows; i++ {
		brow := b.data[i*b.stride : i*b.stride+n]
		for j := 0; j < n; j++ {
			s := brow[j]
			for k := 0; k < j; k++ {
				s -= brow[k] * diag.data[k*diag.stride+j]
			}
			brow[j] = s / diag.data[j*diag.stride+j]
		}
	}
	return nil
}

// TrsmLowerLeftUnit solves L·X = B in place (B := L⁻¹·B), where L is the
// unit lower triangle of the factored diagonal tile diag. B must have as
// many rows as diag.
//
//repro:kernel
func TrsmLowerLeftUnit(diag, b *Dense) error {
	if diag.rows != diag.cols || b.rows != diag.rows {
		return fmt.Errorf("matrix: trsm L⁻¹·B(%dx%d) with diag %dx%d: %w",
			b.rows, b.cols, diag.rows, diag.cols, ErrShape)
	}
	n := diag.rows
	for j := 0; j < b.cols; j++ {
		for i := 0; i < n; i++ {
			s := b.data[i*b.stride+j]
			irow := diag.data[i*diag.stride : i*diag.stride+i]
			for k := 0; k < i; k++ {
				s -= irow[k] * b.data[k*b.stride+j]
			}
			b.data[i*b.stride+j] = s
		}
	}
	return nil
}

// MulSubUnrolled computes C -= A×B — the trailing GEMM update of the
// factorisation — as the 4×4 register-blocked twin of MulAddUnrolled
// and the kernel KernelConfig.MulSub dispatches (see shapes.go): each
// 4×4 tile of C lives in sixteen scalar accumulators while the k loop
// streams four A and four B values, so the inner loop carries no C
// loads or stores. Every C element still subtracts its k products in
// ascending order starting from the prior C value, so the result is
// bitwise identical to the plain i-k-j subtract loop this kernel
// replaced, and the flop count stays exactly 2·m·n·k regardless of the
// data.
//
//repro:kernel
func MulSubUnrolled(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	m, n, kk := a.rows, b.cols, a.cols
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a.data[(i+0)*a.stride : (i+0)*a.stride+kk]
		a1 := a.data[(i+1)*a.stride : (i+1)*a.stride+kk]
		a2 := a.data[(i+2)*a.stride : (i+2)*a.stride+kk]
		a3 := a.data[(i+3)*a.stride : (i+3)*a.stride+kk]
		c0 := c.data[(i+0)*c.stride : (i+0)*c.stride+n]
		c1 := c.data[(i+1)*c.stride : (i+1)*c.stride+n]
		c2 := c.data[(i+2)*c.stride : (i+2)*c.stride+n]
		c3 := c.data[(i+3)*c.stride : (i+3)*c.stride+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			s00, s01, s02, s03 := c0[j], c0[j+1], c0[j+2], c0[j+3]
			s10, s11, s12, s13 := c1[j], c1[j+1], c1[j+2], c1[j+3]
			s20, s21, s22, s23 := c2[j], c2[j+1], c2[j+2], c2[j+3]
			s30, s31, s32, s33 := c3[j], c3[j+1], c3[j+2], c3[j+3]
			for k := 0; k < kk; k++ {
				brow := b.data[k*b.stride+j : k*b.stride+j+4 : k*b.stride+j+4]
				b0, b1, b2, b3 := brow[0], brow[1], brow[2], brow[3]
				av := a0[k]
				s00 -= av * b0
				s01 -= av * b1
				s02 -= av * b2
				s03 -= av * b3
				av = a1[k]
				s10 -= av * b0
				s11 -= av * b1
				s12 -= av * b2
				s13 -= av * b3
				av = a2[k]
				s20 -= av * b0
				s21 -= av * b1
				s22 -= av * b2
				s23 -= av * b3
				av = a3[k]
				s30 -= av * b0
				s31 -= av * b1
				s32 -= av * b2
				s33 -= av * b3
			}
			c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
			c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
			c2[j], c2[j+1], c2[j+2], c2[j+3] = s20, s21, s22, s23
			c3[j], c3[j+1], c3[j+2], c3[j+3] = s30, s31, s32, s33
		}
		for ; j < n; j++ {
			s0, s1, s2, s3 := c0[j], c1[j], c2[j], c3[j]
			for k := 0; k < kk; k++ {
				bv := b.data[k*b.stride+j]
				s0 -= a0[k] * bv
				s1 -= a1[k] * bv
				s2 -= a2[k] * bv
				s3 -= a3[k] * bv
			}
			c0[j], c1[j], c2[j], c3[j] = s0, s1, s2, s3
		}
	}
	mulSubRowsFrom(c, a, b, i)
	return nil
}

// mulSubRowsFrom finishes rows i..m of C -= A×B with the scalar row
// path (4-wide column unrolling, then scalar columns), preserving the
// reference per-element accumulation order.
//
//repro:kernel
func mulSubRowsFrom(c, a, b *Dense, i int) {
	m, n, kk := a.rows, b.cols, a.cols
	for ; i < m; i++ {
		arow := a.data[i*a.stride : i*a.stride+kk]
		crow := c.data[i*c.stride : i*c.stride+n]
		j := 0
		for ; j+4 <= n; j += 4 {
			s0, s1, s2, s3 := crow[j], crow[j+1], crow[j+2], crow[j+3]
			for k := 0; k < kk; k++ {
				av := arow[k]
				brow := b.data[k*b.stride+j : k*b.stride+j+4 : k*b.stride+j+4]
				s0 -= av * brow[0]
				s1 -= av * brow[1]
				s2 -= av * brow[2]
				s3 -= av * brow[3]
			}
			crow[j], crow[j+1], crow[j+2], crow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			s := crow[j]
			for k := 0; k < kk; k++ {
				s -= arow[k] * b.data[k*b.stride+j]
			}
			crow[j] = s
		}
	}
}
