package lu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/matrix"
	"repro/internal/parallel"
)

func TestFactorKnown2x2(t *testing.T) {
	// A = [[4, 3], [6, 3]] → L = [[1,0],[1.5,1]], U = [[4,3],[0,-1.5]].
	a, _ := matrix.NewFromSlice(2, 2, []float64{4, 3, 6, 3})
	if err := Factor(a, 2); err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.NewFromSlice(2, 2, []float64{4, 3, 1.5, -1.5})
	if !a.EqualTol(want, 1e-14) {
		t.Fatalf("factor result\n%v want\n%v", a, want)
	}
}

func TestFactorReconstructs(t *testing.T) {
	for _, n := range []int{1, 2, 5, 8, 16, 23} {
		for _, q := range []int{1, 2, 3, 4, 8} {
			orig := RandomDominant(n, uint64(n*10+q))
			lu := orig.Clone()
			if err := Factor(lu, q); err != nil {
				t.Fatalf("n=%d q=%d: %v", n, q, err)
			}
			if diff := Verify(orig, lu); diff > 1e-9*float64(n) {
				t.Fatalf("n=%d q=%d: |A - LU| = %g", n, q, diff)
			}
		}
	}
}

func TestFactorMatchesUnblocked(t *testing.T) {
	// Tiled factorisation must agree with the q=n unblocked one.
	orig := RandomDominant(12, 99)
	whole := orig.Clone()
	if err := Factor(whole, 12); err != nil {
		t.Fatal(err)
	}
	tiled := orig.Clone()
	if err := Factor(tiled, 4); err != nil {
		t.Fatal(err)
	}
	if diff := tiled.MaxAbsDiff(whole); diff > 1e-10 {
		t.Fatalf("tiled vs unblocked differ by %g", diff)
	}
}

func TestFactorRejectsBadInput(t *testing.T) {
	if err := Factor(matrix.New(2, 3), 2); err == nil {
		t.Fatal("non-square must fail")
	}
	if err := Factor(matrix.New(2, 2), 0); err == nil {
		t.Fatal("q=0 must fail")
	}
}

func TestFactorSingular(t *testing.T) {
	a := matrix.New(3, 3) // all zeros → zero pivot immediately
	err := Factor(a, 3)
	if !errors.Is(err, ErrSingular) {
		t.Fatalf("expected ErrSingular, got %v", err)
	}
	// Singularity appearing in a later tile.
	b, _ := matrix.NewFromSlice(2, 2, []float64{1, 1, 1, 1})
	if err := Factor(b, 1); !errors.Is(err, ErrSingular) {
		t.Fatalf("rank-1 matrix: expected ErrSingular, got %v", err)
	}
}

func TestFactorParallelBitwiseEqualsSequential(t *testing.T) {
	team, err := parallel.NewTeam(4)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	for _, n := range []int{4, 9, 16, 25} {
		orig := RandomDominant(n, uint64(n))
		seq := orig.Clone()
		if err := Factor(seq, 3); err != nil {
			t.Fatal(err)
		}
		par := orig.Clone()
		if _, err := FactorParallelTuned(par, 3, team, parallel.ModePacked, MachineFor(team.Size(), 3), parallel.DefaultTuning); err != nil {
			t.Fatal(err)
		}
		if !par.Equal(seq) {
			t.Fatalf("n=%d: parallel result differs from sequential (max %g)", n, par.MaxAbsDiff(seq))
		}
	}
}

func TestFactorParallelValidation(t *testing.T) {
	team, _ := parallel.NewTeam(2)
	defer team.Close()
	if _, err := FactorParallelTuned(matrix.New(2, 3), 2, team, parallel.ModePacked, MachineFor(team.Size(), 2), parallel.DefaultTuning); err == nil {
		t.Fatal("non-square must fail")
	}
	if _, err := FactorParallelTuned(matrix.New(2, 2), 2, nil, parallel.ModePacked, MachineFor(2, 2), parallel.DefaultTuning); err == nil {
		t.Fatal("nil team must fail")
	}
}

func TestFactorParallelReconstructs(t *testing.T) {
	team, _ := parallel.NewTeam(3)
	defer team.Close()
	orig := RandomDominant(20, 5)
	lu := orig.Clone()
	if _, err := FactorParallelTuned(lu, 4, team, parallel.ModePacked, MachineFor(team.Size(), 4), parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	if diff := Verify(orig, lu); diff > 1e-8 {
		t.Fatalf("|A - LU| = %g", diff)
	}
}

// Property: LU of a diagonally dominant matrix always reconstructs.
func TestFactorProperty(t *testing.T) {
	f := func(nRaw, qRaw uint8, seed uint64) bool {
		n := int(nRaw%12) + 1
		q := int(qRaw%5) + 1
		orig := RandomDominant(n, seed)
		lu := orig.Clone()
		if err := Factor(lu, q); err != nil {
			return false
		}
		return Verify(orig, lu) < 1e-8*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Solving A·x = b via the factorisation must reproduce a known solution.
func TestFactorSolvesSystems(t *testing.T) {
	n := 16
	a := RandomDominant(n, 3)
	xWant := matrix.Random(n, 1, 4)
	b := matrix.New(n, 1)
	if err := matrix.MulAdd(b, a, xWant); err != nil {
		t.Fatal(err)
	}

	lu := a.Clone()
	if err := Factor(lu, 4); err != nil {
		t.Fatal(err)
	}
	// Forward substitution L·y = b (unit lower).
	y := b.Clone()
	for i := 0; i < n; i++ {
		s := y.At(i, 0)
		for k := 0; k < i; k++ {
			s -= lu.At(i, k) * y.At(k, 0)
		}
		y.Set(i, 0, s)
	}
	// Back substitution U·x = y.
	x := y.Clone()
	for i := n - 1; i >= 0; i-- {
		s := x.At(i, 0)
		for k := i + 1; k < n; k++ {
			s -= lu.At(i, k) * x.At(k, 0)
		}
		x.Set(i, 0, s/lu.At(i, i))
	}
	if !x.EqualTol(xWant, 1e-9) {
		t.Fatalf("solve deviates by %g", x.MaxAbsDiff(xWant))
	}
}

func TestRandomDominantIsDominant(t *testing.T) {
	a := RandomDominant(10, 7)
	for i := 0; i < 10; i++ {
		var off float64
		for j := 0; j < 10; j++ {
			if i != j {
				off += math.Abs(a.At(i, j))
			}
		}
		if math.Abs(a.At(i, i)) <= off {
			t.Fatalf("row %d not diagonally dominant", i)
		}
	}
}

func BenchmarkFactorSequential(b *testing.B) {
	orig := RandomDominant(128, 1)
	work := matrix.New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := work.CopyFrom(orig); err != nil {
			b.Fatal(err)
		}
		if err := Factor(work, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFactorParallel(b *testing.B) {
	team, err := parallel.NewTeam(4)
	if err != nil {
		b.Fatal(err)
	}
	defer team.Close()
	orig := RandomDominant(128, 1)
	work := matrix.New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := work.CopyFrom(orig); err != nil {
			b.Fatal(err)
		}
		if _, err := FactorParallelTuned(work, 32, team, parallel.ModePacked, MachineFor(team.Size(), 32), parallel.DefaultTuning); err != nil {
			b.Fatal(err)
		}
	}
}
