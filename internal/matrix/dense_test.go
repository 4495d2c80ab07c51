package matrix

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("got %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("element (%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewFromSlice(t *testing.T) {
	m, err := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(1, 2); got != 6 {
		t.Fatalf("At(1,2) = %v, want 6", got)
	}
	if _, err := NewFromSlice(2, 3, []float64{1}); err == nil {
		t.Fatal("expected shape error for short slice")
	}
}

func TestSetAtAdd(t *testing.T) {
	m := New(2, 2)
	m.Set(0, 1, 5)
	m.Add(0, 1, 2.5)
	if got := m.At(0, 1); got != 7.5 {
		t.Fatalf("got %v, want 7.5", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range access")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestViewSharesStorage(t *testing.T) {
	m := New(4, 4)
	v := m.View(1, 1, 2, 2)
	v.Set(0, 0, 9)
	if m.At(1, 1) != 9 {
		t.Fatalf("view write not visible in parent: got %v", m.At(1, 1))
	}
	m.Set(2, 2, 3)
	if v.At(1, 1) != 3 {
		t.Fatalf("parent write not visible in view: got %v", v.At(1, 1))
	}
}

func TestViewOfView(t *testing.T) {
	m := Random(6, 6, 1)
	v := m.View(1, 1, 4, 4).View(1, 1, 2, 2)
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if v.At(i, j) != m.At(i+2, j+2) {
				t.Fatalf("nested view (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestViewPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range view")
		}
	}()
	New(3, 3).View(1, 1, 3, 3)
}

func TestCloneIndependent(t *testing.T) {
	m := Random(3, 5, 42)
	c := m.Clone()
	if !m.Equal(c) {
		t.Fatal("clone differs from original")
	}
	c.Set(0, 0, 123)
	if m.At(0, 0) == 123 {
		t.Fatal("clone shares storage with original")
	}
}

func TestCloneOfViewCompact(t *testing.T) {
	m := Random(5, 5, 7)
	v := m.View(1, 2, 3, 2)
	c := v.Clone()
	if c.Stride() != 2 {
		t.Fatalf("clone stride = %d, want compact 2", c.Stride())
	}
	if !c.Equal(v) {
		t.Fatal("clone of view differs")
	}
}

func TestCopyFrom(t *testing.T) {
	src := Random(3, 3, 9)
	dst := New(3, 3)
	if err := dst.CopyFrom(src); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src) {
		t.Fatal("copy mismatch")
	}
	if err := dst.CopyFrom(New(2, 2)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestZeroFill(t *testing.T) {
	m := Random(3, 3, 5)
	m.Fill(2)
	if m.At(1, 1) != 2 {
		t.Fatal("fill failed")
	}
	m.Zero()
	if m.FrobeniusNorm() != 0 {
		t.Fatal("zero failed")
	}
}

func TestZeroOnViewDoesNotTouchParentOutside(t *testing.T) {
	m := New(4, 4)
	m.Fill(1)
	m.View(1, 1, 2, 2).Zero()
	if m.At(0, 0) != 1 || m.At(3, 3) != 1 {
		t.Fatal("Zero on view corrupted surrounding elements")
	}
	if m.At(1, 1) != 0 || m.At(2, 2) != 0 {
		t.Fatal("Zero on view did not zero view region")
	}
}

func TestFillFunc(t *testing.T) {
	m := New(3, 3)
	m.FillFunc(func(i, j int) float64 { return float64(10*i + j) })
	if m.At(2, 1) != 21 {
		t.Fatalf("got %v, want 21", m.At(2, 1))
	}
}

func TestTranspose(t *testing.T) {
	m := Random(3, 5, 11)
	tr := m.Transpose()
	if tr.Rows() != 5 || tr.Cols() != 3 {
		t.Fatalf("transpose shape %dx%d", tr.Rows(), tr.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		m := Random(4, 7, seed)
		return m.Transpose().Transpose().Equal(m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaleAddMatrix(t *testing.T) {
	m := Random(2, 2, 3)
	orig := m.Clone()
	m.Scale(2)
	if m.At(0, 0) != 2*orig.At(0, 0) {
		t.Fatal("scale failed")
	}
	if err := m.AddMatrix(orig); err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.At(1, 1)-3*orig.At(1, 1)) > 1e-15 {
		t.Fatal("add failed")
	}
	if err := m.AddMatrix(New(5, 5)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestEqualTol(t *testing.T) {
	a := Random(2, 2, 1)
	b := a.Clone()
	b.Add(0, 0, 1e-12)
	if a.Equal(b) {
		t.Fatal("exact equal should fail")
	}
	if !a.EqualTol(b, 1e-10) {
		t.Fatal("tolerant equal should pass")
	}
	if a.EqualTol(New(3, 3), 1) {
		t.Fatal("different shapes must not be equal")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	b.Set(1, 0, -3)
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Fatalf("MaxAbsDiff = %v, want 3", got)
	}
	if !math.IsNaN(a.MaxAbsDiff(New(1, 1))) {
		t.Fatal("shape mismatch should yield NaN")
	}
}

// A NaN on one side only must fail every comparison: every bitwise pin
// goes through Equal and MaxAbsDiff, and NaN compares false with
// everything.
func TestCompareNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		x, y  float64
		diff  float64
		equal bool
	}{
		{1, 1, 0, true},
		{1, 3, 2, false},
		{nan, 1, inf, false},
		{1, nan, inf, false},
		{nan, inf, inf, false},
		{nan, nan, 0, true},
		{inf, inf, 0, true},
		{-inf, -inf, 0, true},
		{inf, -inf, inf, false},
		{inf, 1, inf, false},
	}
	for _, c := range cases {
		a, _ := NewFromSlice(1, 2, []float64{0, c.x})
		b, _ := NewFromSlice(1, 2, []float64{0, c.y})
		if got := a.MaxAbsDiff(b); got != c.diff {
			t.Errorf("MaxAbsDiff(%v, %v) = %v, want %v", c.x, c.y, got, c.diff)
		}
		if got := a.Equal(b); got != c.equal {
			t.Errorf("Equal(%v, %v) = %v, want %v", c.x, c.y, got, c.equal)
		}
		if got := a.EqualTol(b, 1e300); got != (c.diff != inf) {
			t.Errorf("EqualTol(%v, %v, 1e300) = %v, want %v", c.x, c.y, got, c.diff != inf)
		}
	}
}

func TestIdentity(t *testing.T) {
	id := Identity(4)
	m := Random(4, 4, 13)
	out := New(4, 4)
	if err := MulNaive(out, m, id); err != nil {
		t.Fatal(err)
	}
	if !out.EqualTol(m, 1e-14) {
		t.Fatal("M*I != M")
	}
}

func TestRandomDeterministic(t *testing.T) {
	a := Random(4, 4, 99)
	b := Random(4, 4, 99)
	if !a.Equal(b) {
		t.Fatal("Random not deterministic for equal seeds")
	}
	c := Random(4, 4, 100)
	if a.Equal(c) {
		t.Fatal("Random identical for different seeds")
	}
}

func TestRandomRange(t *testing.T) {
	m := Random(16, 16, 5)
	for i := 0; i < 16; i++ {
		for j := 0; j < 16; j++ {
			v := m.At(i, j)
			if v < -1 || v >= 1 {
				t.Fatalf("Random value %v outside [-1,1)", v)
			}
		}
	}
}

func TestStringSmallAndLarge(t *testing.T) {
	if s := New(2, 2).String(); len(s) == 0 {
		t.Fatal("empty String for small matrix")
	}
	if s := New(20, 20).String(); s != "Dense(20x20)" {
		t.Fatalf("large matrix String = %q", s)
	}
}

func TestFrobeniusNorm(t *testing.T) {
	m, _ := NewFromSlice(1, 2, []float64{3, 4})
	if got := m.FrobeniusNorm(); math.Abs(got-5) > 1e-15 {
		t.Fatalf("norm = %v, want 5", got)
	}
}
