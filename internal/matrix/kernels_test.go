package matrix

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMulNaiveKnown(t *testing.T) {
	a, _ := NewFromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b, _ := NewFromSlice(3, 2, []float64{7, 8, 9, 10, 11, 12})
	c := New(2, 2)
	if err := MulNaive(c, a, b); err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromSlice(2, 2, []float64{58, 64, 139, 154})
	if !c.Equal(want) {
		t.Fatalf("got\n%v want\n%v", c, want)
	}
}

func TestMulAccumulates(t *testing.T) {
	a := Identity(3)
	b := Random(3, 3, 4)
	c := b.Clone()
	if err := MulAdd(c, a, b); err != nil {
		t.Fatal(err)
	}
	two := b.Clone()
	two.Scale(2)
	if !c.EqualTol(two, 1e-14) {
		t.Fatal("MulAdd must accumulate into C")
	}
}

func TestKernelsAgree(t *testing.T) {
	kernels := map[string]func(c, a, b *Dense) error{
		"MulAdd":         MulAdd,
		"MulAddUnrolled": MulAddUnrolled,
	}
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {7, 3, 9}, {16, 16, 16}, {17, 13, 11}}
	for name, kern := range kernels {
		for _, s := range shapes {
			m, n, k := s[0], s[1], s[2]
			a := Random(m, k, uint64(m*100+n))
			b := Random(k, n, uint64(n*100+k))
			want := New(m, n)
			if err := MulNaive(want, a, b); err != nil {
				t.Fatal(err)
			}
			got := New(m, n)
			if err := kern(got, a, b); err != nil {
				t.Fatalf("%s %v: %v", name, s, err)
			}
			if !got.EqualTol(want, 1e-12) {
				t.Fatalf("%s disagrees with MulNaive for shape %v (maxdiff %g)",
					name, s, got.MaxAbsDiff(want))
			}
		}
	}
}

func TestMulBlockedMatchesNaive(t *testing.T) {
	for _, q := range []int{1, 2, 3, 4, 8, 32} {
		a := Random(13, 9, uint64(q))
		b := Random(9, 11, uint64(q)+1)
		want := New(13, 11)
		if err := MulNaive(want, a, b); err != nil {
			t.Fatal(err)
		}
		got := New(13, 11)
		if err := MulBlocked(got, a, b, q); err != nil {
			t.Fatal(err)
		}
		if !got.EqualTol(want, 1e-12) {
			t.Fatalf("MulBlocked(q=%d) disagrees with naive (maxdiff %g)", q, got.MaxAbsDiff(want))
		}
	}
}

func TestMulBlockedBadTile(t *testing.T) {
	c := New(2, 2)
	if err := MulBlocked(c, Identity(2), Identity(2), 0); err == nil {
		t.Fatal("expected error for q=0")
	}
}

func TestMulShapeErrors(t *testing.T) {
	c := New(2, 2)
	a := New(2, 3)
	b := New(4, 2) // inner dimension mismatch
	for name, kern := range map[string]func(c, a, b *Dense) error{
		"MulNaive": MulNaive, "MulAdd": MulAdd, "MulAddUnrolled": MulAddUnrolled,
	} {
		if err := kern(c, a, b); err == nil {
			t.Fatalf("%s: expected shape error", name)
		}
	}
	if err := MulBlocked(c, a, b, 2); err == nil {
		t.Fatal("MulBlocked: expected shape error")
	}
}

func TestAXPYBlock(t *testing.T) {
	c := New(2, 2)
	b, _ := NewFromSlice(2, 2, []float64{1, 2, 3, 4})
	if err := AXPYBlock(c, b, 2); err != nil {
		t.Fatal(err)
	}
	want, _ := NewFromSlice(2, 2, []float64{2, 4, 6, 8})
	if !c.Equal(want) {
		t.Fatalf("axpy got\n%v", c)
	}
	if err := AXPYBlock(c, New(3, 3), 1); err == nil {
		t.Fatal("expected shape error")
	}
}

// The register-blocked micro-kernel must stay *bitwise* identical to
// MulAdd at every kernel level: each adds each C element's k products
// in ascending order onto the prior C value, so the 2×3 Go tile, the
// AVX2 4×8 body and the AVX-512 4×16 body may change speed but never a
// single bit of the result.
// The executor's bitwise guarantees (view vs packed, run-twice
// reproducibility) lean on this.
func TestMulAddUnrolledBitwiseMatchesMulAdd(t *testing.T) {
	levels, restore := kernelLevels()
	defer restore()
	for _, l := range levels {
		level = l
		t.Run(levelName(l), testMulAddUnrolledBitwiseMatchesMulAdd)
	}
}

func testMulAddUnrolledBitwiseMatchesMulAdd(t *testing.T) {
	shapes := [][3]int{
		{1, 1, 1}, {3, 3, 3}, {4, 4, 4}, {5, 7, 3}, {8, 8, 8},
		{13, 11, 9}, {16, 16, 16}, {17, 5, 32}, {2, 31, 6},
		{4, 8, 1}, {11, 23, 7}, {32, 32, 32},
		{4, 16, 1}, {8, 40, 3}, {11, 47, 5},
	}
	for _, s := range shapes {
		m, n, k := s[0], s[1], s[2]
		a := Random(m, k, uint64(7*m+n))
		b := Random(k, n, uint64(11*n+k))
		seedC := Random(m, n, uint64(13*m+k)) // accumulate onto non-zero C
		want := seedC.Clone()
		if err := MulAdd(want, a, b); err != nil {
			t.Fatal(err)
		}
		got := seedC.Clone()
		if err := MulAddUnrolled(got, a, b); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("shape %v: register-blocked kernel deviates from MulAdd by %g — the accumulation order changed",
				s, got.MaxAbsDiff(want))
		}
		// Strided views must take the same code path unchanged.
		parent := Random(m+3, n+5, uint64(m+n))
		wantV := parent.Clone().View(2, 3, m, n)
		gotV := parent.Clone().View(2, 3, m, n)
		if err := MulAdd(wantV, a, b); err != nil {
			t.Fatal(err)
		}
		if err := MulAddUnrolled(gotV, a, b); err != nil {
			t.Fatal(err)
		}
		if !gotV.Equal(wantV) {
			t.Fatalf("shape %v (strided): register-blocked kernel deviates from MulAdd by %g",
				s, gotV.MaxAbsDiff(wantV))
		}
	}
}

// Property: (A×B)ᵀ = Bᵀ×Aᵀ for the tuned kernel.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := Random(5, 4, seed)
		b := Random(4, 6, seed+1)
		ab := New(5, 6)
		if err := MulAdd(ab, a, b); err != nil {
			return false
		}
		btat := New(6, 5)
		if err := MulAdd(btat, b.Transpose(), a.Transpose()); err != nil {
			return false
		}
		return ab.Transpose().EqualTol(btat, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: multiplication distributes over addition: A×(B1+B2) = A×B1 + A×B2.
func TestMulDistributiveProperty(t *testing.T) {
	f := func(seed uint64) bool {
		a := Random(4, 4, seed)
		b1 := Random(4, 4, seed+1)
		b2 := Random(4, 4, seed+2)

		sum := b1.Clone()
		if err := sum.AddMatrix(b2); err != nil {
			return false
		}
		left := New(4, 4)
		if err := MulAdd(left, a, sum); err != nil {
			return false
		}

		right := New(4, 4)
		if err := MulAdd(right, a, b1); err != nil {
			return false
		}
		if err := MulAdd(right, a, b2); err != nil {
			return false
		}
		return left.EqualTol(right, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMulAdd64(b *testing.B) {
	benchKernel(b, MulAdd, 64)
}

func BenchmarkMulNaive64(b *testing.B) {
	benchKernel(b, MulNaive, 64)
}

func benchKernel(b *testing.B, kern func(c, a, b *Dense) error, n int) {
	a := Random(n, n, 1)
	bb := Random(n, n, 2)
	c := New(n, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := kern(c, a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTileKernels times the executor's MulAdd and MulSub tile
// kernels through KernelConfig at the workloads' tile sizes, q=16
// (gemm-fine) and q=32 (gemm-replay, lu-oneshot), and reports GFLOP/s.
// "contiguous" operands are the staging modes' arena-resident tiles;
// "view1024" operands are q×q views of 1024-wide matrices, the ModeView
// and lu.Factor case at n=1024. The last axis is the kernel level: the
// Go tile, the AVX2 body and the AVX-512 body, each skipped where the
// CPU lacks it. The levels of one case run back to back in one binary,
// so repeating a single-count run gives the bodies alternating rounds
// (-count repeats each sub-benchmark in place instead):
//
//	go test -c -o matrix.test ./internal/matrix/
//	for i in $(seq 10); do ./matrix.test -test.run '^$' -test.bench TileKernels; done
func BenchmarkTileKernels(b *testing.B) {
	var kc KernelConfig
	kernels := []struct {
		name string
		run  func(c, a, b *Dense) error
	}{{"MulAdd", kc.MulAdd}, {"MulSub", kc.MulSub}}
	top := level
	defer func() { level = top }()
	for _, kern := range kernels {
		for _, q := range []int{16, 32} {
			for _, layout := range []string{"contiguous", "view1024"} {
				a, bb, c := Random(q, q, 1), Random(q, q, 2), Random(q, q, 3)
				if layout == "view1024" {
					a = Random(q, 1024, 1).View(0, q, q, q)
					bb = Random(q, 1024, 2).View(0, q, q, q)
					c = Random(q, 1024, 3).View(0, q, q, q)
				}
				for l := levelGo; l <= levelAVX512; l++ {
					b.Run(fmt.Sprintf("%s/q=%d/%s/%s", kern.name, q, layout, levelName(l)), func(b *testing.B) {
						if l > top {
							b.Skipf("this CPU or build lacks the %s body", levelName(l))
						}
						level = l
						for i := 0; i < b.N; i++ {
							if err := kern.run(c, a, bb); err != nil {
								b.Fatal(err)
							}
						}
						b.ReportMetric(2*float64(q*q*q)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
			}
		}
	}
}
