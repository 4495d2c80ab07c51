// Parallel GEMM: run the paper's schedules for real. One goroutine per
// core executes the same loop nest the simulator analyses, on actual
// float64 blocks; the result is verified against a sequential reference
// and timed against it.
//
// Each schedule runs four times: with the strided-view baseline where
// staging moves no data, with staging realised physically at the
// distributed level (blocks packed into per-core arenas sized from the
// machine's distributed caches — the default), with the full two-level
// hierarchy (blocks flow memory → shared arena → per-core arenas), and
// with the pipelined two-level hierarchy (a stager goroutine prefetches
// and retires shared staging while the cores compute). The side-by-side
// GFLOP/s columns show what the paper's "load into the … cache"
// discipline — and hiding its σS stream behind compute — buys on real
// hardware.
//
//	go run ./examples/parallel_gemm
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"repro"
)

func main() {
	const (
		order = 12 // blocks per matrix side
		q     = 48 // coefficients per block side
	)
	mach := repro.QuadCore(32, false)
	mach.P = min(runtime.NumCPU(), 8)
	mach.Q = q

	n := order * q
	flops := 2 * float64(n) * float64(n) * float64(n)
	fmt.Printf("real C = A×B, %d×%d coefficients (%d×%d blocks of %d×%d), p=%d goroutines\n\n",
		n, n, order, order, q, q, mach.P)

	var seqTime time.Duration
	{
		tr, err := repro.NewTriple(order, order, order, q, 7)
		if err != nil {
			log.Fatal(err)
		}
		// Sequential reference timing: the "Tradeoff" schedule on one core.
		seq := mach
		seq.P = 1
		start := time.Now()
		if err := repro.Multiply("Tradeoff", tr, seq, repro.ExecPacked, repro.Tuning{}); err != nil {
			log.Fatal(err)
		}
		seqTime = time.Since(start)
		fmt.Printf("%-18s  %10v  %6.2f GFLOP/s\n\n", "1-core Tradeoff",
			seqTime.Round(time.Microsecond), flops/seqTime.Seconds()/1e9)
	}

	// measure runs one schedule in one executor mode and returns GFLOP/s.
	measure := func(name string, mode repro.ExecMode) float64 {
		tr, err := repro.NewTriple(order, order, order, q, 7)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if err := repro.Multiply(name, tr, mach, mode, repro.Tuning{}); err != nil {
			log.Fatal(err)
		}
		elapsed := time.Since(start)

		diff, err := repro.Verify(tr)
		if err != nil {
			log.Fatal(err)
		}
		if diff > 1e-9 {
			log.Fatalf("%s (%v): result deviates by %g", name, mode, diff)
		}
		return flops / elapsed.Seconds() / 1e9
	}

	fmt.Printf("%-18s  %15s  %15s  %15s  %15s  %8s  %8s\n",
		"algorithm", "view GFLOP/s", "packed GFLOP/s", "shared GFLOP/s", "pipelined GFL/s", "pkd/view", "pipe/shr")
	for _, name := range repro.AlgorithmNames() {
		view := measure(name, repro.ExecView)
		packed := measure(name, repro.ExecPacked)
		shared := measure(name, repro.ExecShared)
		pipelined := measure(name, repro.ExecSharedPipelined)
		fmt.Printf("%-18s  %15.2f  %15.2f  %15.2f  %15.2f  %7.2fx  %7.2fx\n",
			name, view, packed, shared, pipelined, packed/view, pipelined/shared)
	}

	fmt.Println("\nall schedules verified against the sequential blocked reference, in all four modes")
}
