package matrix

import (
	"errors"
	"testing"
)

// Reference kernels the KernelConfig dispatch is pinned against.
// MulAdd is its own reference; MulSub's is the plain i-k-j subtract
// loop the old MulSubUnrolled implemented; FactorTile and the Trsm
// solves are the plain loops in factor.go. Pinning is bitwise:
// MaxAbsDiff must be exactly zero, not small.

func mulSubRef(c, a, b *Dense) error {
	if err := checkMul(c, a, b); err != nil {
		return err
	}
	for i := 0; i < a.rows; i++ {
		arow := a.data[i*a.stride : i*a.stride+a.cols]
		crow := c.data[i*c.stride : i*c.stride+b.cols]
		for k, av := range arow {
			brow := b.data[k*b.stride : k*b.stride+b.cols]
			for j, bv := range brow {
				crow[j] -= av * bv
			}
		}
	}
	return nil
}

// mulDims covers full blocks, every (m mod 2, n mod 3) remainder class
// of the 2×3 register tile next to at least one full tile, operands
// smaller than one tile, the workloads' q=16 and q=32 tiles, and
// degenerate edges. For the AVX2 body it adds every (m mod 4, n mod 8)
// class next to full 4×8 blocks (m from 8 to 11, n from 16 to 23), k=1
// under full blocks, and operands smaller than one block. For the
// AVX-512 body it adds every (m mod 4, n mod 16) class next to full
// 4×16 blocks (m from 8 to 11, n from 32 to 47), so at that level one
// call runs a 16-wide block, the 8-column AVX2 strip and the Go strip;
// k=1 under full 4×16 blocks; and operands 8 to 15 columns wide, which
// run the AVX2 body alone.
var mulDims = func() [][3]int {
	dims := [][3]int{
		{16, 16, 16}, {8, 8, 8}, {4, 4, 4},
		{13, 7, 11}, {9, 5, 3}, {7, 9, 2}, {17, 13, 5},
		{1, 1, 1}, {3, 3, 3}, {8, 3, 8}, {3, 8, 8}, {11, 12, 1},
		{2, 3, 1}, {6, 9, 4}, {4, 7, 6}, {5, 6, 7}, {3, 4, 2}, {1, 2, 5},
		{2, 1, 3}, {32, 32, 32}, {32, 16, 32},
		{4, 8, 1}, {13, 21, 1}, {32, 32, 1},
		{3, 7, 9}, {3, 40, 6}, {40, 7, 6}, {1, 8, 3}, {4, 1, 3},
		{4, 16, 1}, {8, 48, 1}, {11, 47, 1}, {3, 47, 5},
	}
	for m := 8; m < 12; m++ {
		for n := 16; n < 24; n++ {
			dims = append(dims, [3]int{m, n, 2 + m + n%5})
		}
		for n := 32; n < 48; n++ {
			dims = append(dims, [3]int{m, n, 1 + m%3 + n%7})
		}
	}
	for n := 8; n < 16; n++ {
		dims = append(dims, [3]int{4 + n%5, n, 1 + n%6})
	}
	return dims
}()

// kernelLevels returns the kernel levels the multi-path tests run —
// levelGo, the Go register tile, always, and every vector level up to
// the one this build and CPU enabled — with a func that restores the
// setting.
func kernelLevels() ([]kernelLevel, func()) {
	top := level
	var levels []kernelLevel
	for l := levelGo; l <= top; l++ {
		levels = append(levels, l)
	}
	return levels, func() { level = top }
}

// levelName names a kernel level in subtest names and failures.
func levelName(l kernelLevel) string {
	return [...]string{levelGo: "go", levelAVX2: "avx2", levelAVX512: "avx512"}[l]
}

func randomDense(t *testing.T, rows, cols int, seed uint64) *Dense {
	t.Helper()
	return Random(rows, cols, seed)
}

func TestKernelShapesMulBitwise(t *testing.T) {
	levels, restore := kernelLevels()
	defer restore()
	for _, l := range levels {
		level = l
		t.Run(levelName(l), testKernelShapesMulBitwise)
	}
}

func testKernelShapesMulBitwise(t *testing.T) {
	var kc KernelConfig
	for _, dims := range mulDims {
		m, n, k := dims[0], dims[1], dims[2]
		a := randomDense(t, m, k, 11)
		b := randomDense(t, k, n, 23)
		want := randomDense(t, m, n, 37)
		got := want.Clone()
		if err := MulAdd(want, a, b); err != nil {
			t.Fatal(err)
		}
		if err := kc.MulAdd(got, a, b); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("MulAdd %v deviates from reference by %g", dims, d)
		}
		want = randomDense(t, m, n, 41)
		got = want.Clone()
		if err := mulSubRef(want, a, b); err != nil {
			t.Fatal(err)
		}
		if err := kc.MulSub(got, a, b); err != nil {
			t.Fatal(err)
		}
		if d := got.MaxAbsDiff(want); d != 0 {
			t.Fatalf("MulSub %v deviates from reference by %g", dims, d)
		}
	}
}

// The tile kernels run once per tile inside the executor's timed
// region, so no level may allocate — not even the edge strips'
// sub-headers, which must stay on the stack. At the AVX-512 level the
// 45 columns run a 16-wide block, the 8-column AVX2 strip and the Go
// strip.
func TestTileKernelsDoNotAllocate(t *testing.T) {
	a, b, c := Random(13, 9, 1), Random(9, 45, 2), Random(13, 45, 3)
	levels, restore := kernelLevels()
	defer restore()
	for _, l := range levels {
		level = l
		for _, kern := range []struct {
			name string
			run  func(c, a, b *Dense) error
		}{{"MulAddUnrolled", MulAddUnrolled}, {"MulSubUnrolled", MulSubUnrolled}} {
			if n := testing.AllocsPerRun(10, func() { _ = kern.run(c, a, b) }); n != 0 {
				t.Errorf("%s: %s allocates %v times per call", levelName(l), kern.name, n)
			}
		}
	}
}

// The kernels must stay pinned on strided views too — the
// executor's ModeView runs kernels over views, and a stride bug would
// hide on contiguous operands.
func TestKernelShapesMulBitwiseOnViews(t *testing.T) {
	levels, restore := kernelLevels()
	defer restore()
	for _, l := range levels {
		level = l
		t.Run(levelName(l), testKernelShapesMulBitwiseOnViews)
	}
}

func testKernelShapesMulBitwiseOnViews(t *testing.T) {
	// bw and cw are the widths of B's and C's parents. At the AVX-512
	// level the second shape runs a 16-wide block, the 8-column AVX2
	// strip and the Go strip.
	for _, s := range []struct{ m, n, k, bw, cw int }{{13, 11, 9, 30, 25}, {11, 45, 7, 50, 50}} {
		big := randomDense(t, 40, 40, 5)
		a := big.View(1, 2, s.m, s.k)
		b2 := randomDense(t, 30, s.bw, 7)
		b := b2.View(3, 1, s.k, s.n)
		var kc KernelConfig
		cBase := randomDense(t, 25, s.cw, 9)
		cRef := cBase.Clone()
		if err := MulAdd(cRef.View(2, 2, s.m, s.n), a, b); err != nil {
			t.Fatal(err)
		}
		cGot := cBase.Clone()
		if err := kc.MulAdd(cGot.View(2, 2, s.m, s.n), a, b); err != nil {
			t.Fatal(err)
		}
		if d := cGot.MaxAbsDiff(cRef); d != 0 {
			t.Fatalf("MulAdd %v over views deviates by %g", s, d)
		}
		// lu.Factor and ModeView LU run MulSub over views of the matrix.
		cRef = cBase.Clone()
		if err := mulSubRef(cRef.View(2, 2, s.m, s.n), a, b); err != nil {
			t.Fatal(err)
		}
		cGot = cBase.Clone()
		if err := kc.MulSub(cGot.View(2, 2, s.m, s.n), a, b); err != nil {
			t.Fatal(err)
		}
		if d := cGot.MaxAbsDiff(cRef); d != 0 {
			t.Fatalf("MulSub %v over views deviates by %g", s, d)
		}
	}
}

func TestKernelShapesFactorBitwise(t *testing.T) {
	var kc KernelConfig
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 32} {
		d := randomDense(t, n, n, uint64(n))
		// Diagonal dominance keeps every pivot well away from the floor.
		for i := 0; i < n; i++ {
			d.data[i*d.stride+i] += float64(2 * n)
		}
		want := d.Clone()
		if err := FactorTile(want); err != nil {
			t.Fatal(err)
		}
		got := d.Clone()
		if err := kc.FactorTile(got); err != nil {
			t.Fatal(err)
		}
		if diff := got.MaxAbsDiff(want); diff != 0 {
			t.Fatalf("FactorTile n=%d deviates from reference by %g", n, diff)
		}
	}
}

func TestKernelShapesFactorSingular(t *testing.T) {
	var kc KernelConfig
	d := randomDense(t, 8, 8, 3)
	for i := 0; i < 8; i++ {
		d.data[i*d.stride+i] += 16
	}
	d.data[4*d.stride+4] = 0
	// Zero the rest of row/column 4 so elimination cannot refill the
	// pivot before step 4 reaches it.
	for j := 0; j < 8; j++ {
		if j != 4 {
			d.data[4*d.stride+j] = 0
			d.data[j*d.stride+4] = 0
		}
	}
	err := kc.FactorTile(d.Clone())
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("singular tile not rejected: %v", err)
	}
}

func TestKernelShapesTrsmBitwise(t *testing.T) {
	var kc KernelConfig
	for _, n := range []int{1, 3, 4, 5, 8, 11, 16} {
		for _, rows := range []int{1, 2, 4, 5, 8, 9, 13} {
			diag := randomDense(t, n, n, uint64(10*n))
			for i := 0; i < n; i++ {
				diag.data[i*diag.stride+i] += float64(2 * n)
			}
			if err := FactorTile(diag); err != nil {
				t.Fatal(err)
			}

			bur := randomDense(t, rows, n, uint64(rows))
			want := bur.Clone()
			if err := TrsmUpperRight(diag, want); err != nil {
				t.Fatal(err)
			}
			got := bur.Clone()
			if err := kc.TrsmUpperRight(diag, got); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(want); d != 0 {
				t.Fatalf("TrsmUpperRight n=%d rows=%d deviates by %g", n, rows, d)
			}

			bll := randomDense(t, n, rows, uint64(rows+1))
			want = bll.Clone()
			if err := TrsmLowerLeftUnit(diag, want); err != nil {
				t.Fatal(err)
			}
			got = bll.Clone()
			if err := kc.TrsmLowerLeftUnit(diag, got); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(want); d != 0 {
				t.Fatalf("TrsmLowerLeftUnit n=%d cols=%d deviates by %g", n, rows, d)
			}
		}
	}
}

// FuzzKernelShapesVsReference drives the KernelConfig kernels against
// the reference MulAdd/MulSub on fuzzer-chosen dimensions and seeds: any deviation —
// even one ulp — fails. Each case runs on every kernel level the CPU
// has (the Go register tile, the AVX2 body, the AVX-512 body), and on
// each twice: on compact operands, and on views of larger parents at
// fuzzer-chosen offsets, where the parent of C must be unchanged outside
// C's view.
func FuzzKernelShapesVsReference(f *testing.F) {
	f.Add(uint(16), uint(16), uint(16), uint64(1), uint(0))
	f.Add(uint(13), uint(7), uint(11), uint64(2), uint(9))
	f.Add(uint(9), uint(5), uint(3), uint64(3), uint(23))
	f.Add(uint(8), uint(12), uint(4), uint64(4), uint(41))
	f.Add(uint(1), uint(17), uint(2), uint64(5), uint(6))
	f.Add(uint(31), uint(31), uint(31), uint64(6), uint(17)) // q=32
	f.Add(uint(10), uint(22), uint(0), uint64(7), uint(30))  // both strips, k=1
	f.Add(uint(10), uint(46), uint(5), uint64(8), uint(13))  // 16-wide block, AVX2 strip, Go strips
	f.Fuzz(func(t *testing.T, um, un, uk uint, seed uint64, off uint) {
		m, n, k := int(um%48)+1, int(un%48)+1, int(uk%48)+1
		a := Random(m, k, seed)
		b := Random(k, n, seed+1)
		base := Random(m, n, seed+2)
		addRef := base.Clone()
		if err := MulAdd(addRef, a, b); err != nil {
			t.Fatal(err)
		}
		subRef := base.Clone()
		if err := mulSubRef(subRef, a, b); err != nil {
			t.Fatal(err)
		}

		// Views at row offset ro and column offset co of parents with
		// spare rows and columns on every side; pad gives each operand
		// its own stride.
		ro, co := int(off%4), int(off/4%8)
		view := func(d *Dense, s uint64, pad int) (*Dense, *Dense) {
			p := Random(d.rows+ro+2, d.cols+co+pad, s)
			v := p.View(ro, co, d.rows, d.cols)
			if err := v.CopyFrom(d); err != nil {
				t.Fatal(err)
			}
			return p, v
		}
		_, av := view(a, seed+3, 3)
		_, bv := view(b, seed+4, 5)

		var kc KernelConfig
		levels, restore := kernelLevels()
		defer restore()
		for _, l := range levels {
			level = l
			path := levelName(l)
			got := base.Clone()
			if err := kc.MulAdd(got, a, b); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(addRef); d != 0 {
				t.Fatalf("%s: MulAdd %dx%dx%d deviates by %g", path, m, n, k, d)
			}
			got = base.Clone()
			if err := kc.MulSub(got, a, b); err != nil {
				t.Fatal(err)
			}
			if d := got.MaxAbsDiff(subRef); d != 0 {
				t.Fatalf("%s: MulSub %dx%dx%d deviates by %g", path, m, n, k, d)
			}

			for _, kern := range []struct {
				name string
				run  func(c, a, b *Dense) error
				want *Dense
			}{{"MulAdd", kc.MulAdd, addRef}, {"MulSub", kc.MulSub, subRef}} {
				cp, cv := view(base, seed+5, 7)
				wantParent := cp.Clone()
				if err := wantParent.View(ro, co, m, n).CopyFrom(kern.want); err != nil {
					t.Fatal(err)
				}
				if err := kern.run(cv, av, bv); err != nil {
					t.Fatal(err)
				}
				if d := cv.MaxAbsDiff(kern.want); d != 0 {
					t.Fatalf("%s: %s %dx%dx%d on views at (%d,%d) deviates by %g", path, kern.name, m, n, k, ro, co, d)
				}
				if !cp.Equal(wantParent) {
					t.Fatalf("%s: %s %dx%dx%d on views at (%d,%d) wrote outside C's view", path, kern.name, m, n, k, ro, co)
				}
			}
		}
	})
}
