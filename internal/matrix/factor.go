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
// factorisation — as the subtracting twin of MulAddUnrolled and the
// kernel KernelConfig.MulSub dispatches (see shapes.go): the same 2×3
// tile of six register accumulators, two A values and one B value at a
// time, with the same two-row and one-row remainders. Every C element
// still subtracts its k products in ascending order starting from the
// prior C value, so the result is bitwise identical to the plain i-k-j
// subtract loop, and the flop count stays exactly 2·m·n·k regardless of
// the data.
//
//repro:kernel
func MulSubUnrolled(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
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
				s00 -= av0 * bv
				s10 -= av1 * bv
				bv = brow[1]
				s01 -= av0 * bv
				s11 -= av1 * bv
				bv = brow[2]
				s02 -= av0 * bv
				s12 -= av1 * bv
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
				s0 -= av0 * bv
				s1 -= a1[k] * bv
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
				s -= av * bd[off]
				off += bs
			}
			crow[j] = s
		}
	}
	return nil
}
