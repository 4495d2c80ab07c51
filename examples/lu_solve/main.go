// LU solve: the paper's "future work" operation on the same substrate —
// and, since the schedule IR grew typed block kernels, on the same
// execution path as the matrix product. Factor a diagonally dominant
// system sequentially and through the schedule-driven executor (packed
// arenas and the full two-level shared hierarchy), print the measured
// MS/MD traffic next to each residual, verify A = L·U, and solve A·x = b.
//
//	go run ./examples/lu_solve
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro/internal/lu"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

func main() {
	const (
		n = 512 // system size in coefficients
		q = 64  // tile size
	)
	a := lu.RandomDominant(n, 42)

	// Sequential tiled factorisation: the bitwise reference.
	seq := a.Clone()
	start := time.Now()
	if err := lu.Factor(seq, q); err != nil {
		log.Fatal(err)
	}
	seqTime := time.Since(start)
	fmt.Printf("%-28s %10v   |A-LU| = %.2e\n",
		fmt.Sprintf("sequential tiled (n=%d q=%d)", n, q),
		seqTime.Round(time.Microsecond), lu.Verify(a, seq))

	// Schedule-driven factorisation: the same right-looking loop nest,
	// emitted once as a schedule.Program, executed by the team in every
	// physical staging mode — packed, shared, and shared with the
	// staging pipelined against compute. The traffic columns are the
	// executor's measured block streams — the factorisation's MS
	// (memory↔shared) and MD (shared↔core, or memory↔core in packed
	// mode) — the real counterpart of the miss counts the cache
	// simulator derives from the very same program; note the two
	// shared-level rows move identical traffic.
	p := min(runtime.NumCPU(), 8)
	team, err := parallel.NewTeam(p)
	if err != nil {
		log.Fatal(err)
	}
	defer team.Close()
	mach := lu.MachineFor(p, q)

	var fromSchedule *matrix.Dense
	for _, mode := range []parallel.Mode{parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined} {
		par := a.Clone()
		start = time.Now()
		stats, err := lu.FactorParallelTuned(par, q, team, mode, mach, parallel.DefaultTuning)
		if err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)
		fmt.Printf("%-28s %10v   |A-LU| = %.2e   MS = %7.2f MiB   MD = %7.2f MiB\n",
			fmt.Sprintf("schedule %v (p=%d)", mode, p),
			elapsed.Round(time.Microsecond), lu.Verify(a, par),
			float64(stats.Traffic.MS.Bytes())/(1<<20), float64(stats.Traffic.MD.Bytes())/(1<<20))
		if !par.Equal(seq) {
			log.Fatalf("%v factorisation is not bitwise equal to sequential", mode)
		}
		fromSchedule = par
	}
	fmt.Println("schedule-driven factors are bitwise identical to the sequential ones")

	// Solve A·x = b against a known solution, using the factors the
	// executor produced.
	xWant := matrix.Random(n, 1, 7)
	b := matrix.New(n, 1)
	if err := matrix.MulAdd(b, a, xWant); err != nil {
		log.Fatal(err)
	}
	x := solve(fromSchedule, b)
	fmt.Printf("solve A·x = b: max |x - x*| = %.2e\n", x.MaxAbsDiff(xWant))
}

// solve performs forward and back substitution with the packed factors.
func solve(packed *matrix.Dense, b *matrix.Dense) *matrix.Dense {
	n := packed.Rows()
	y := b.Clone()
	for i := 0; i < n; i++ {
		s := y.At(i, 0)
		for k := 0; k < i; k++ {
			s -= packed.At(i, k) * y.At(k, 0)
		}
		y.Set(i, 0, s)
	}
	for i := n - 1; i >= 0; i-- {
		s := y.At(i, 0)
		for k := i + 1; k < n; k++ {
			s -= packed.At(i, k) * y.At(k, 0)
		}
		y.Set(i, 0, s/packed.At(i, i))
	}
	return y
}
