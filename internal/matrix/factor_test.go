package matrix

import (
	"errors"
	"testing"
)

func TestFactorTileKnown2x2(t *testing.T) {
	// A = [[4, 3], [6, 3]] → L = [[1,0],[1.5,1]], U = [[4,3],[0,-1.5]].
	a, _ := NewFromSlice(2, 2, []float64{4, 3, 6, 3})
	if err := FactorTile(a); err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromSlice(2, 2, []float64{4, 3, 1.5, -1.5})
	if !a.EqualTol(want, 1e-14) {
		t.Fatalf("factor result\n%v want\n%v", a, want)
	}
}

func TestFactorTileRejects(t *testing.T) {
	if err := FactorTile(New(2, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square tile: want ErrShape, got %v", err)
	}
	if err := FactorTile(New(3, 3)); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero tile: want ErrSingular, got %v", err)
	}
}

// randomFactored returns a factored diagonally dominant n×n tile.
func randomFactored(t *testing.T, n int, seed uint64) *Dense {
	t.Helper()
	d := Random(n, n, seed)
	for i := 0; i < n; i++ {
		d.Add(i, i, float64(n))
	}
	if err := FactorTile(d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TrsmUpperRight must solve X·U = B: multiplying the solution back by U
// reproduces B.
func TestTrsmUpperRightSolves(t *testing.T) {
	const n, m = 5, 3
	diag := randomFactored(t, n, 11)
	b := Random(m, n, 13)
	x := b.Clone()
	if err := TrsmUpperRight(diag, x); err != nil {
		t.Fatal(err)
	}
	// back := X·U with U the upper triangle of diag.
	back := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k <= j; k++ {
				s += x.At(i, k) * diag.At(k, j)
			}
			back.Set(i, j, s)
		}
	}
	if diff := back.MaxAbsDiff(b); diff > 1e-10 {
		t.Fatalf("X·U deviates from B by %g", diff)
	}
}

// TrsmLowerLeftUnit must solve L·X = B: multiplying back by the unit
// lower triangle reproduces B.
func TestTrsmLowerLeftUnitSolves(t *testing.T) {
	const n, m = 5, 4
	diag := randomFactored(t, n, 17)
	b := Random(n, m, 19)
	x := b.Clone()
	if err := TrsmLowerLeftUnit(diag, x); err != nil {
		t.Fatal(err)
	}
	back := New(n, m)
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			s := x.At(i, j) // L[i][i] = 1
			for k := 0; k < i; k++ {
				s += diag.At(i, k) * x.At(k, j)
			}
			back.Set(i, j, s)
		}
	}
	if diff := back.MaxAbsDiff(b); diff > 1e-10 {
		t.Fatalf("L·X deviates from B by %g", diff)
	}
}

func TestTrsmRejectsShapes(t *testing.T) {
	diag := Identity(3)
	if err := TrsmUpperRight(diag, New(2, 4)); !errors.Is(err, ErrShape) {
		t.Fatalf("column mismatch: want ErrShape, got %v", err)
	}
	if err := TrsmLowerLeftUnit(diag, New(4, 2)); !errors.Is(err, ErrShape) {
		t.Fatalf("row mismatch: want ErrShape, got %v", err)
	}
	if err := TrsmUpperRight(New(2, 3), New(4, 3)); !errors.Is(err, ErrShape) {
		t.Fatalf("non-square diag: want ErrShape, got %v", err)
	}
}

// MulSubUnrolled must mirror MulAddUnrolled at every kernel level:
// C0 += A·B followed by C0 -= A·B restores C0 up to roundoff, and
// against a zeroed C it equals the negated naive product.
func TestMulSubUnrolledMirrorsMulAdd(t *testing.T) {
	levels, restore := kernelLevels()
	defer restore()
	for _, l := range levels {
		level = l
		t.Run(levelName(l), testMulSubUnrolledMirrorsMulAdd)
	}
}

func testMulSubUnrolledMirrorsMulAdd(t *testing.T) {
	for _, s := range []struct{ m, n, k int }{{4, 4, 4}, {5, 3, 7}, {1, 9, 2}, {4, 8, 3}, {9, 19, 6}, {9, 43, 6}} {
		a := Random(s.m, s.k, 5)
		b := Random(s.k, s.n, 6)
		c := Random(s.m, s.n, 7)
		orig := c.Clone()
		if err := MulAddUnrolled(c, a, b); err != nil {
			t.Fatal(err)
		}
		if err := MulSubUnrolled(c, a, b); err != nil {
			t.Fatal(err)
		}
		if !c.EqualTol(orig, 1e-12) {
			t.Fatalf("%dx%dx%d: add-then-sub drifts by %g", s.m, s.n, s.k, c.MaxAbsDiff(orig))
		}

		neg := New(s.m, s.n)
		if err := MulSubUnrolled(neg, a, b); err != nil {
			t.Fatal(err)
		}
		want := New(s.m, s.n)
		if err := MulNaive(want, a, b); err != nil {
			t.Fatal(err)
		}
		want.Scale(-1)
		if diff := neg.MaxAbsDiff(want); diff > 1e-12 {
			t.Fatalf("%dx%dx%d: -A·B deviates from naive by %g", s.m, s.n, s.k, diff)
		}
	}
	if err := MulSubUnrolled(New(2, 2), New(2, 3), New(2, 2)); !errors.Is(err, ErrShape) {
		t.Fatal("shape mismatch must fail")
	}
}

// The LU kernels must run identically on strided views: factor a tile
// embedded in a larger matrix and compare with the compact result.
func TestFactorKernelsOnViews(t *testing.T) {
	big := Random(8, 8, 23)
	for i := 0; i < 8; i++ {
		big.Add(i, i, 8)
	}
	compact := big.View(2, 2, 4, 4).Clone()
	view := big.View(2, 2, 4, 4)
	if err := FactorTile(view); err != nil {
		t.Fatal(err)
	}
	if err := FactorTile(compact); err != nil {
		t.Fatal(err)
	}
	if !view.Clone().Equal(compact) {
		t.Fatal("FactorTile on a view deviates from the compact tile")
	}
}
