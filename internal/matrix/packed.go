package matrix

import "fmt"

// Packed block storage. The paper's cost model is entirely about moving
// q×q blocks into faster memory before computing on them; this file
// supplies the data-movement half of that story for the real executor:
// Pack copies a (possibly strided) tile view into a contiguous row-major
// buffer, Unpack copies it back, and MulAddPacked is the DGEMM
// micro-kernel over contiguous tiles. A packed tile occupies rows·cols
// consecutive float64 values — one stream for the hardware prefetcher,
// no large power-of-two strides to alias in set-associative caches.

// Pack copies the src tile into dst as a contiguous row-major
// rows×cols image. dst must hold at least rows·cols values; the number
// of values written is returned.
//
//repro:kernel
func Pack(dst []float64, src *Dense) (int, error) {
	need := src.rows * src.cols
	if len(dst) < need {
		return 0, fmt.Errorf("matrix: pack %dx%d tile into %d-value buffer: %w",
			src.rows, src.cols, len(dst), ErrShape)
	}
	for i := 0; i < src.rows; i++ {
		copy(dst[i*src.cols:(i+1)*src.cols], src.data[i*src.stride:i*src.stride+src.cols])
	}
	return need, nil
}

// Unpack copies a contiguous row-major rows×cols image out of src into
// the dst tile. src must hold at least dst.Rows()·dst.Cols() values.
//
//repro:kernel
func Unpack(dst *Dense, src []float64) error {
	need := dst.rows * dst.cols
	if len(src) < need {
		return fmt.Errorf("matrix: unpack %d-value buffer into %dx%d tile: %w",
			len(src), dst.rows, dst.cols, ErrShape)
	}
	for i := 0; i < dst.rows; i++ {
		copy(dst.data[i*dst.stride:i*dst.stride+dst.cols], src[i*dst.cols:(i+1)*dst.cols])
	}
	return nil
}

// MulAddPacked computes C += A×B over packed tiles: c is m×n, a is m×k
// and b is k×n, all contiguous row-major. It is the standalone entry
// point for computing on raw packed buffers (the executor itself
// dispatches the 2×3 register-tiled MulAddUnrolled, through
// KernelConfig, on Dense headers it caches per staged tile): after the
// slice-length checks it wraps the buffers as compact headers and runs
// the very same MulAddUnrolled kernel, so both routes are bitwise
// identical and the flop count stays exactly 2·m·n·k regardless of the
// data.
//
//repro:kernel
func MulAddPacked(c, a, b []float64, m, n, k int) error {
	if m < 0 || n < 0 || k < 0 || len(c) < m*n || len(a) < m*k || len(b) < k*n {
		return fmt.Errorf("matrix: packed multiply C(%d:%dx%d) += A(%d:%dx%d)*B(%d:%dx%d): %w",
			len(c), m, n, len(a), m, k, len(b), k, n, ErrShape)
	}
	cd := &Dense{rows: m, cols: n, stride: n, data: c[:m*n]}
	ad := &Dense{rows: m, cols: k, stride: k, data: a[:m*k]}
	bd := &Dense{rows: k, cols: n, stride: n, data: b[:k*n]}
	return MulAddUnrolled(cd, ad, bd)
}
