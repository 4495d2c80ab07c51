// Package lu implements a tiled right-looking LU factorisation, the
// first "more complex operation" the paper names as future work ("we
// will tackle more complex operations, such as LU factorization"). It
// is built entirely on the repository's substrate: q×q tiles as the
// unit of work, the typed block kernels of internal/matrix (FactorTile,
// the two triangular solves, MulSub) at the leaves, and — for the
// parallel path — a schedule.Program over the generalized kernel op set,
// consumed by the same two backends as the matrix product: the cache
// simulator counts the factorisation's MS/MD streams and the real
// executor runs it on packed arena-resident tiles. There is no
// hand-written parallel loop nest here; see Program.
//
// The factorisation is unpivoted (tiles on the diagonal are factored in
// place), so it requires matrices whose leading principal minors are
// well-conditioned — e.g. diagonally dominant ones, for which unpivoted
// LU is backward stable. RandomDominant generates such inputs.
package lu

import (
	"fmt"

	"repro/internal/matrix"
)

// ErrSingular is returned (wrapped) when a zero or numerically vanishing
// pivot is encountered. It aliases the kernel-level sentinel so both the
// sequential and the schedule-driven paths report the same error.
var ErrSingular = matrix.ErrSingular

// Factor computes the in-place tiled LU factorisation A = L·U with tile
// size q: after the call, the strictly lower triangle of a holds the
// unit-lower-triangular L (implicit ones on the diagonal) and the upper
// triangle holds U. The matrix must be square.
//
// The per-tile operations are exactly the executor's kernels, applied in
// the same panel-then-update order the schedule emits, so
// FactorParallelTuned reproduces this result bitwise in every executor
// mode.
func Factor(a *matrix.Dense, q int) error {
	if err := check(a, q); err != nil {
		return err
	}
	n := a.Rows()
	for k0 := 0; k0 < n; k0 += q {
		klen := min(q, n-k0)
		diag := a.View(k0, k0, klen, klen)
		if err := matrix.FactorTile(diag); err != nil {
			return fmt.Errorf("lu: diagonal tile at %d: %w", k0, err)
		}
		// Column panel: A[i][k] := A[i][k]·U⁻¹.
		for i0 := k0 + klen; i0 < n; i0 += q {
			ilen := min(q, n-i0)
			if err := matrix.TrsmUpperRight(diag, a.View(i0, k0, ilen, klen)); err != nil {
				return err
			}
		}
		// Row panel: A[k][j] := L⁻¹·A[k][j].
		for j0 := k0 + klen; j0 < n; j0 += q {
			jlen := min(q, n-j0)
			if err := matrix.TrsmLowerLeftUnit(diag, a.View(k0, j0, klen, jlen)); err != nil {
				return err
			}
		}
		// Trailing update: A[i][j] -= A[i][k]·A[k][j].
		for i0 := k0 + klen; i0 < n; i0 += q {
			ilen := min(q, n-i0)
			li := a.View(i0, k0, ilen, klen)
			for j0 := k0 + klen; j0 < n; j0 += q {
				jlen := min(q, n-j0)
				if err := matrix.MulSubUnrolled(a.View(i0, j0, ilen, jlen), li, a.View(k0, j0, klen, jlen)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func check(a *matrix.Dense, q int) error {
	if a.Rows() != a.Cols() {
		return fmt.Errorf("lu: matrix is %dx%d, need square: %w", a.Rows(), a.Cols(), matrix.ErrShape)
	}
	if q <= 0 {
		return fmt.Errorf("lu: tile size q=%d must be positive", q)
	}
	return nil
}

// RandomDominant returns a deterministic random n×n matrix made strictly
// diagonally dominant (A = R + n·I with R ∈ [-1,1)ⁿˣⁿ), for which
// unpivoted LU is well defined and backward stable.
func RandomDominant(n int, seed uint64) *matrix.Dense {
	a := matrix.Random(n, n, seed)
	for i := 0; i < n; i++ {
		a.Add(i, i, float64(n))
	}
	return a
}

// SingularInput returns a deterministic n×n matrix whose unpivoted
// factorisation fails at exactly block step `step` (tile size q): every
// diagonal q×q tile is diagonally dominant except tile (step, step),
// which stays zero, and the off-diagonal blocks are zero — so the
// eliminations before step never repair the hole and the first
// vanishing pivot FactorTile meets is that tile's. It exists to
// demonstrate and test the singular failure path (cmd/lufact's
// -singular-at, the mid-run provenance tests); it is not a workload.
func SingularInput(n, q, step int, seed uint64) *matrix.Dense {
	a := matrix.New(n, n)
	d := RandomDominant(q, seed)
	for b := 0; b*q < n; b++ {
		if b == step {
			continue
		}
		for i := 0; i < q && b*q+i < n; i++ {
			for j := 0; j < q && b*q+j < n; j++ {
				a.Set(b*q+i, b*q+j, d.At(i, j))
			}
		}
	}
	return a
}

// Reconstruct multiplies the L and U factors packed in lu back into a
// dense matrix (for verification).
func Reconstruct(lu *matrix.Dense) *matrix.Dense {
	n := lu.Rows()
	out := matrix.New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			// (L·U)[i][j] = Σ_k L[i][k]·U[k][j], L unit lower, U upper.
			kmax := min(i, j)
			for k := 0; k < kmax; k++ {
				s += lu.At(i, k) * lu.At(k, j)
			}
			if i <= j {
				s += lu.At(i, j) // L[i][i] = 1 times U[i][j]
			} else {
				s += lu.At(i, j) * lu.At(j, j) // L[i][j]·U[j][j]
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// Verify factors nothing: it measures max |A − L·U| between the original
// matrix and the packed factorisation.
func Verify(original, lu *matrix.Dense) float64 {
	return Reconstruct(lu).MaxAbsDiff(original)
}
