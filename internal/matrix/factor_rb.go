package matrix

import (
	"fmt"
	"math"
)

// The four-row register-blocked LU leaf kernels that KernelConfig
// dispatches (see shapes.go). Within one pivot step of the
// factorisation every trailing element is updated exactly once and
// every multiplier l depends only on state the step does not modify,
// so processing rows in blocks of four — sharing the pivot-row loads
// across the block — reorders independent updates only and the result
// is bitwise identical to the reference FactorTile. Likewise the Trsm
// solves: TrsmUpperRight's rows of B are independent solves (blocked
// to share U column loads), TrsmLowerLeftUnit's columns of B are
// independent (blocked to share L row loads), and each element keeps
// its reference k-ascending accumulation order and its reference
// rounding sequence.

// factorTileRB4 is the 4-row register-blocked FactorTile: four trailing
// rows per block hold their multipliers in scalars while the update
// streams the pivot row once, 4-wide in the columns.
//
//repro:kernel
func factorTileRB4(d *Dense) error {
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
		i := k + 1
		for ; i+4 <= n; i += 4 {
			r0 := d.data[(i+0)*d.stride : (i+0)*d.stride+n]
			r1 := d.data[(i+1)*d.stride : (i+1)*d.stride+n]
			r2 := d.data[(i+2)*d.stride : (i+2)*d.stride+n]
			r3 := d.data[(i+3)*d.stride : (i+3)*d.stride+n]
			l0 := r0[k] / piv
			l1 := r1[k] / piv
			l2 := r2[k] / piv
			l3 := r3[k] / piv
			r0[k], r1[k], r2[k], r3[k] = l0, l1, l2, l3
			j := k + 1
			for ; j+4 <= n; j += 4 {
				k0, k1, k2, k3 := krow[j], krow[j+1], krow[j+2], krow[j+3]
				r0[j] -= l0 * k0
				r0[j+1] -= l0 * k1
				r0[j+2] -= l0 * k2
				r0[j+3] -= l0 * k3
				r1[j] -= l1 * k0
				r1[j+1] -= l1 * k1
				r1[j+2] -= l1 * k2
				r1[j+3] -= l1 * k3
				r2[j] -= l2 * k0
				r2[j+1] -= l2 * k1
				r2[j+2] -= l2 * k2
				r2[j+3] -= l2 * k3
				r3[j] -= l3 * k0
				r3[j+1] -= l3 * k1
				r3[j+2] -= l3 * k2
				r3[j+3] -= l3 * k3
			}
			for ; j < n; j++ {
				kv := krow[j]
				r0[j] -= l0 * kv
				r1[j] -= l1 * kv
				r2[j] -= l2 * kv
				r3[j] -= l3 * kv
			}
		}
		for ; i < n; i++ {
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

// trsmUpperRightRB4 solves X·U = B in place, four rows of B per block:
// the rows are independent solves, so blocking them shares each U
// column load without touching any row's accumulation order.
//
//repro:kernel
func trsmUpperRightRB4(diag, b *Dense) error {
	if diag.rows != diag.cols || b.cols != diag.rows {
		return fmt.Errorf("matrix: trsm B(%dx%d)·U⁻¹ with diag %dx%d: %w",
			b.rows, b.cols, diag.rows, diag.cols, ErrShape)
	}
	n := diag.rows
	i := 0
	for ; i+4 <= b.rows; i += 4 {
		b0 := b.data[(i+0)*b.stride : (i+0)*b.stride+n]
		b1 := b.data[(i+1)*b.stride : (i+1)*b.stride+n]
		b2 := b.data[(i+2)*b.stride : (i+2)*b.stride+n]
		b3 := b.data[(i+3)*b.stride : (i+3)*b.stride+n]
		for j := 0; j < n; j++ {
			s0, s1, s2, s3 := b0[j], b1[j], b2[j], b3[j]
			for k := 0; k < j; k++ {
				u := diag.data[k*diag.stride+j]
				s0 -= b0[k] * u
				s1 -= b1[k] * u
				s2 -= b2[k] * u
				s3 -= b3[k] * u
			}
			d := diag.data[j*diag.stride+j]
			b0[j], b1[j], b2[j], b3[j] = s0/d, s1/d, s2/d, s3/d
		}
	}
	for ; i < b.rows; i++ {
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

// trsmLowerLeftRB4 solves L·X = B in place, four columns of B per
// block: the columns are independent solves, so blocking them shares
// each L row load without touching any column's accumulation order.
//
//repro:kernel
func trsmLowerLeftRB4(diag, b *Dense) error {
	if diag.rows != diag.cols || b.rows != diag.rows {
		return fmt.Errorf("matrix: trsm L⁻¹·B(%dx%d) with diag %dx%d: %w",
			b.rows, b.cols, diag.rows, diag.cols, ErrShape)
	}
	n := diag.rows
	j := 0
	for ; j+4 <= b.cols; j += 4 {
		for i := 0; i < n; i++ {
			brow := b.data[i*b.stride+j : i*b.stride+j+4 : i*b.stride+j+4]
			s0, s1, s2, s3 := brow[0], brow[1], brow[2], brow[3]
			irow := diag.data[i*diag.stride : i*diag.stride+i]
			for k := 0; k < i; k++ {
				lv := irow[k]
				krow := b.data[k*b.stride+j : k*b.stride+j+4 : k*b.stride+j+4]
				s0 -= lv * krow[0]
				s1 -= lv * krow[1]
				s2 -= lv * krow[2]
				s3 -= lv * krow[3]
			}
			brow[0], brow[1], brow[2], brow[3] = s0, s1, s2, s3
		}
	}
	for ; j < b.cols; j++ {
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
