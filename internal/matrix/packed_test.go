package matrix

import (
	"errors"
	"testing"
)

func TestPackUnpackRoundTrip(t *testing.T) {
	parent := Random(10, 12, 5)
	// A strided interior view: the hard case Pack must flatten.
	src := parent.View(2, 3, 5, 7)
	buf := make([]float64, 5*7)
	n, err := Pack(buf, src)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5*7 {
		t.Fatalf("packed %d values, want %d", n, 5*7)
	}
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			if buf[i*7+j] != src.At(i, j) {
				t.Fatalf("packed[%d,%d] = %g, want %g", i, j, buf[i*7+j], src.At(i, j))
			}
		}
	}
	dst := New(5, 7)
	if err := Unpack(dst, buf); err != nil {
		t.Fatal(err)
	}
	if !dst.Equal(src.Clone()) {
		t.Fatal("unpack does not restore the packed tile")
	}
}

func TestPackUnpackIntoView(t *testing.T) {
	// Unpack into a strided view must leave the rest of the parent intact.
	parent := New(6, 6)
	buf := make([]float64, 4)
	buf[0], buf[1], buf[2], buf[3] = 1, 2, 3, 4
	if err := Unpack(parent.View(1, 1, 2, 2), buf); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			sum += parent.At(i, j)
		}
	}
	if sum != 10 || parent.At(1, 1) != 1 || parent.At(2, 2) != 4 {
		t.Fatalf("unpack leaked outside the view:\n%v", parent)
	}
}

func TestPackUnpackShapeErrors(t *testing.T) {
	if _, err := Pack(make([]float64, 3), New(2, 2)); err == nil {
		t.Fatal("Pack into a short buffer must fail")
	}
	if err := Unpack(New(2, 2), make([]float64, 3)); err == nil {
		t.Fatal("Unpack from a short buffer must fail")
	}
}

func TestMulAddPackedMatchesNaive(t *testing.T) {
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 9}, {16, 16, 16}, {17, 13, 11}}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := Random(m, k, uint64(m*100+n))
		b := Random(k, n, uint64(n*100+k))
		want := New(m, n)
		if err := MulNaive(want, a, b); err != nil {
			t.Fatal(err)
		}
		pa := make([]float64, m*k)
		pb := make([]float64, k*n)
		pc := make([]float64, m*n)
		if _, err := Pack(pa, a); err != nil {
			t.Fatal(err)
		}
		if _, err := Pack(pb, b); err != nil {
			t.Fatal(err)
		}
		if err := MulAddPacked(pc, pa, pb, m, n, k); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got := New(m, n)
		if err := Unpack(got, pc); err != nil {
			t.Fatal(err)
		}
		if !got.EqualTol(want, 1e-12) {
			t.Fatalf("MulAddPacked disagrees with MulNaive for shape %v (maxdiff %g)",
				s, got.MaxAbsDiff(want))
		}
	}
}

// Malformed dimensions must come back as ErrShape, never as a panic
// or a kernel call: the kernel behind MulAddPacked reads and writes
// through assembly that checks no bounds of its own.
func TestMulAddPackedShapeErrors(t *testing.T) {
	buf := make([]float64, 16)
	for _, tc := range []struct {
		name    string
		m, n, k int
	}{
		{"short buffers", 5, 5, 5},
		{"negative dimension", -1, 2, 2},
		{"products wrap to zero", 1 << 32, 1 << 32, 1 << 32},
		{"one product wraps to zero", 1 << 62, 4, 4},
		{"empty operand beside a huge one", 0, 1 << 62, 4},
	} {
		if err := MulAddPacked(buf, buf, buf, tc.m, tc.n, tc.k); !errors.Is(err, ErrShape) {
			t.Errorf("%s (%d×%d×%d): want ErrShape, got %v", tc.name, tc.m, tc.n, tc.k, err)
		}
	}
}

// FuzzMulAddPackedVsNaive cross-checks the packed micro-kernel against
// the naive reference for arbitrary shapes and inputs (including the
// all-zero rows the old zero-skipping kernel special-cased). The seed
// corpus pins the shapes the executor actually produces: full q×q tiles
// and the ragged right/bottom edges of n mod q ≠ 0 workloads.
func FuzzMulAddPackedVsNaive(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(4), uint64(1), false)
	f.Add(uint8(8), uint8(8), uint8(8), uint64(2), false)
	f.Add(uint8(8), uint8(3), uint8(8), uint64(3), false) // ragged right edge
	f.Add(uint8(5), uint8(8), uint8(2), uint64(4), false) // ragged bottom edge
	f.Add(uint8(1), uint8(1), uint8(1), uint64(5), false)
	f.Add(uint8(7), uint8(7), uint8(7), uint64(6), true) // zero rows in A
	f.Fuzz(func(t *testing.T, mRaw, nRaw, kRaw uint8, seed uint64, zeroRow bool) {
		m := int(mRaw%16) + 1
		n := int(nRaw%16) + 1
		k := int(kRaw%16) + 1
		a := Random(m, k, seed)
		b := Random(k, n, seed+1)
		if zeroRow {
			for j := 0; j < k; j++ {
				a.Set(0, j, 0)
			}
		}
		want := New(m, n)
		if err := MulNaive(want, a, b); err != nil {
			t.Fatal(err)
		}
		pa := make([]float64, m*k)
		pb := make([]float64, k*n)
		pc := make([]float64, m*n)
		if _, err := Pack(pa, a); err != nil {
			t.Fatal(err)
		}
		if _, err := Pack(pb, b); err != nil {
			t.Fatal(err)
		}
		if err := MulAddPacked(pc, pa, pb, m, n, k); err != nil {
			t.Fatal(err)
		}
		got := New(m, n)
		if err := Unpack(got, pc); err != nil {
			t.Fatal(err)
		}
		if !got.EqualTol(want, 1e-10) {
			t.Fatalf("packed kernel deviates by %g for %dx%dx%d", got.MaxAbsDiff(want), m, n, k)
		}
	})
}

func BenchmarkMulAddPacked64(b *testing.B) {
	const n = 64
	pa := make([]float64, n*n)
	pb := make([]float64, n*n)
	pc := make([]float64, n*n)
	if _, err := Pack(pa, Random(n, n, 1)); err != nil {
		b.Fatal(err)
	}
	if _, err := Pack(pb, Random(n, n, 2)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := MulAddPacked(pc, pa, pb, n, n, n); err != nil {
			b.Fatal(err)
		}
	}
}
