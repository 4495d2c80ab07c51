// Package matrix provides the dense and blocked matrix substrate used by
// both the cache simulator and the real parallel executor.
//
// The paper manipulates matrices at the granularity of square q×q blocks
// of coefficients ("the atomic elements that we manipulate are not matrix
// coefficients but rather square blocks"). This package supplies:
//
//   - Dense: a row-major float64 matrix with cheap sub-matrix views,
//   - Blocked: a partition of a Dense matrix into q×q tiles addressed by
//     block coordinates, the unit of transfer in the cache model,
//   - reference and tuned multiplication kernels used to verify and to
//     drive the real goroutine-based executor.
package matrix

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) whenever matrix dimensions are
// incompatible with the requested operation.
var ErrShape = errors.New("matrix: incompatible shapes")

// Dense is a row-major matrix of float64 values. The zero value is an
// empty matrix. A Dense may be a view into a larger matrix, in which case
// stride exceeds cols and mutations are visible through the parent.
type Dense struct {
	rows, cols int
	stride     int
	data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %dx%d", rows, cols))
	}
	return &Dense{
		rows:   rows,
		cols:   cols,
		stride: cols,
		data:   make([]float64, rows*cols),
	}
}

// NewFromSlice wraps data as a rows×cols matrix. The slice is used
// directly (not copied) and must have length rows*cols. Negative
// dimensions fail with ErrShape, and so do dimensions whose product
// wraps around to len(data): the check divides instead of multiplying.
// The kernels' assembly bodies trust a header's shape and stride, so
// one that does not describe its slice must not exist.
func NewFromSlice(rows, cols int, data []float64) (*Dense, error) {
	if rows < 0 || cols < 0 || !describes(len(data), rows, cols) {
		return nil, fmt.Errorf("matrix: data length %d does not match %dx%d: %w",
			len(data), rows, cols, ErrShape)
	}
	return &Dense{rows: rows, cols: cols, stride: cols, data: data}, nil
}

// describes reports whether n values are exactly a rows×cols image, for
// non-negative rows and cols, without forming the product rows·cols.
func describes(n, rows, cols int) bool {
	if rows == 0 || cols == 0 {
		return n == 0
	}
	return n%rows == 0 && n/rows == cols
}

// Rows returns the number of rows.
func (m *Dense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense) Cols() int { return m.cols }

// Stride returns the distance in elements between vertically adjacent
// entries in the backing slice.
func (m *Dense) Stride() int { return m.stride }

// Data exposes the backing slice of the matrix. For views, the slice
// covers the view region (first row offset already applied); rows are
// spaced by Stride().
func (m *Dense) Data() []float64 { return m.data }

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.stride+j]
}

// Set assigns v to the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.stride+j] = v
}

// Add adds v to the element at row i, column j.
func (m *Dense) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.stride+j] += v
}

func (m *Dense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// View returns a sub-matrix view of size r×c starting at (i, j). The view
// shares storage with m: writes through the view are visible in m.
func (m *Dense) View(i, j, r, c int) *Dense {
	if i < 0 || j < 0 || r < 0 || c < 0 || i+r > m.rows || j+c > m.cols {
		panic(fmt.Sprintf("matrix: view (%d,%d,%d,%d) out of range %dx%d", i, j, r, c, m.rows, m.cols))
	}
	return &Dense{
		rows:   r,
		cols:   c,
		stride: m.stride,
		data:   m.data[i*m.stride+j : i*m.stride+j+max((r-1)*m.stride+c, 0)],
	}
}

// Clone returns a deep copy of m with a compact stride.
func (m *Dense) Clone() *Dense {
	out := New(m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		copy(out.data[i*out.stride:i*out.stride+m.cols], m.data[i*m.stride:i*m.stride+m.cols])
	}
	return out
}

// CopyFrom copies src into m. Shapes must match exactly.
func (m *Dense) CopyFrom(src *Dense) error {
	if m.rows != src.rows || m.cols != src.cols {
		return fmt.Errorf("matrix: copy %dx%d into %dx%d: %w", src.rows, src.cols, m.rows, m.cols, ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		copy(m.data[i*m.stride:i*m.stride+m.cols], src.data[i*src.stride:i*src.stride+m.cols])
	}
	return nil
}

// Zero sets every element of m to zero.
func (m *Dense) Zero() {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for j := range row {
			row[j] = 0
		}
	}
}

// Fill sets every element of m to v.
func (m *Dense) Fill(v float64) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for j := range row {
			row[j] = v
		}
	}
}

// FillFunc sets element (i, j) to f(i, j) for every element.
func (m *Dense) FillFunc(f func(i, j int) float64) {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			m.data[i*m.stride+j] = f(i, j)
		}
	}
}

// Transpose returns a newly allocated transpose of m.
func (m *Dense) Transpose() *Dense {
	out := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*out.stride+i] = m.data[i*m.stride+j]
		}
	}
	return out
}

// Scale multiplies every element of m by s.
func (m *Dense) Scale(s float64) {
	for i := 0; i < m.rows; i++ {
		row := m.data[i*m.stride : i*m.stride+m.cols]
		for j := range row {
			row[j] *= s
		}
	}
}

// AddMatrix adds other into m element-wise.
func (m *Dense) AddMatrix(other *Dense) error {
	if m.rows != other.rows || m.cols != other.cols {
		return fmt.Errorf("matrix: add %dx%d to %dx%d: %w", other.rows, other.cols, m.rows, m.cols, ErrShape)
	}
	for i := 0; i < m.rows; i++ {
		dst := m.data[i*m.stride : i*m.stride+m.cols]
		src := other.data[i*other.stride : i*other.stride+m.cols]
		for j := range dst {
			dst[j] += src[j]
		}
	}
	return nil
}

// Equal reports whether m and other have the same shape and identical
// elements.
func (m *Dense) Equal(other *Dense) bool {
	return m.EqualTol(other, 0)
}

// EqualTol reports whether m and other have the same shape and all
// elements within tol of each other (absolute difference, see absDiff
// for NaN).
func (m *Dense) EqualTol(other *Dense, tol float64) bool {
	if m.rows != other.rows || m.cols != other.cols {
		return false
	}
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			if absDiff(m.data[i*m.stride+j], other.data[i*other.stride+j]) > tol {
				return false
			}
		}
	}
	return true
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// m and other (see absDiff for NaN), or NaN if shapes differ.
func (m *Dense) MaxAbsDiff(other *Dense) float64 {
	if m.rows != other.rows || m.cols != other.cols {
		return math.NaN()
	}
	var best float64
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			d := absDiff(m.data[i*m.stride+j], other.data[i*other.stride+j])
			if d > best {
				best = d
			}
		}
	}
	return best
}

// absDiff is |x − y| for the comparisons, with NaN handled so that no
// comparison passes by accident: equal values (equal infinities
// included) and two NaNs differ by 0, and a NaN on one side only
// differs by +Inf.
func absDiff(x, y float64) float64 {
	d := math.Abs(x - y)
	if d != d { // a NaN operand, or two infinities of one sign
		if x == y || (x != x && y != y) {
			return 0
		}
		return math.Inf(1)
	}
	return d
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	var s float64
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			v := m.data[i*m.stride+j]
			s += v * v
		}
	}
	return math.Sqrt(s)
}

// String renders small matrices for debugging; large matrices are
// summarised by shape only.
func (m *Dense) String() string {
	if m.rows > 12 || m.cols > 12 {
		return fmt.Sprintf("Dense(%dx%d)", m.rows, m.cols)
	}
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		b.WriteString("[")
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%.4g", m.data[i*m.stride+j])
		}
		b.WriteString("]\n")
	}
	return b.String()
}

// xorshift64 is a tiny deterministic PRNG used to fill matrices
// reproducibly without importing math/rand in hot paths.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// Float64 returns a pseudo-random value in [0, 1).
func (x *xorshift64) float64() float64 {
	return float64(x.next()>>11) / (1 << 53)
}

// Random returns a rows×cols matrix with deterministic pseudo-random
// entries in [-1, 1) derived from seed.
func Random(rows, cols int, seed uint64) *Dense {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	rng := xorshift64(seed)
	m := New(rows, cols)
	for i := range m.data {
		m.data[i] = 2*rng.float64() - 1
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*m.stride+i] = 1
	}
	return m
}
