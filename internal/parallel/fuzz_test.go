package parallel

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/matrix"
)

// FuzzPackedExecutorVsNaive cross-checks the packed executor — arenas,
// Pack/Unpack transfers and the contiguous micro-kernel — against the
// naive reference product for arbitrary shapes, block sizes and
// algorithms. The seed corpus covers every registered algorithm once,
// plus ragged n mod q ≠ 0 shapes; `go test` replays the corpus on every
// run (including the CI -race job), and `go test -fuzz` explores from
// there.
func FuzzPackedExecutorVsNaive(f *testing.F) {
	for i := range algo.Extended() {
		f.Add(uint8(i), uint8(12), uint8(9), uint8(10), uint8(4), uint64(i))
	}
	f.Add(uint8(2), uint8(13), uint8(7), uint8(11), uint8(4), uint64(23)) // ragged everywhere
	f.Add(uint8(1), uint8(5), uint8(5), uint8(5), uint8(1), uint64(7))    // q=1
	f.Fuzz(func(t *testing.T, algoIdx, rowsRaw, colsRaw, innerRaw, qRaw uint8, seed uint64) {
		algos := algo.Extended()
		a := algos[int(algoIdx)%len(algos)]
		rows := int(rowsRaw%40) + 1
		cols := int(colsRaw%40) + 1
		inner := int(innerRaw%40) + 1
		q := int(qRaw%8) + 1

		tr, err := matrix.NewTripleDims(rows, cols, inner, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		mach := testMachine(4)
		mach.Q = q
		if err := Multiply(a.Name(), tr, mach, ModePacked, DefaultTuning, nil); err != nil {
			t.Fatalf("%s %dx%dx%d q=%d: %v", a.Name(), rows, cols, inner, q, err)
		}
		want := matrix.New(rows, cols)
		if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
			t.Fatal(err)
		}
		if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("%s %dx%dx%d q=%d: packed result deviates from naive by %g",
				a.Name(), rows, cols, inner, q, diff)
		}
	})
}

// FuzzSharedExecutorVsNaive is the two-level counterpart: every block
// round-trips memory → shared arena → core arena → compute → absorb →
// shared write-back, and the result must still match the naive product
// for arbitrary shapes (including ragged boundary tiles through both
// levels), block sizes and algorithms. The seed corpus mirrors the
// packed one; `go test` replays it on every run (including the CI
// -race job), and `go test -fuzz` explores from there.
func FuzzSharedExecutorVsNaive(f *testing.F) {
	for i := range algo.Extended() {
		f.Add(uint8(i), uint8(12), uint8(9), uint8(10), uint8(4), uint64(i))
	}
	f.Add(uint8(0), uint8(13), uint8(7), uint8(11), uint8(4), uint64(23)) // ragged everywhere
	f.Add(uint8(2), uint8(17), uint8(17), uint8(3), uint8(4), uint64(31)) // inner < q
	f.Add(uint8(1), uint8(5), uint8(5), uint8(5), uint8(1), uint64(7))    // q=1
	f.Fuzz(func(t *testing.T, algoIdx, rowsRaw, colsRaw, innerRaw, qRaw uint8, seed uint64) {
		algos := algo.Extended()
		a := algos[int(algoIdx)%len(algos)]
		rows := int(rowsRaw%40) + 1
		cols := int(colsRaw%40) + 1
		inner := int(innerRaw%40) + 1
		q := int(qRaw%8) + 1

		tr, err := matrix.NewTripleDims(rows, cols, inner, q, seed)
		if err != nil {
			t.Fatal(err)
		}
		mach := testMachine(4)
		mach.Q = q
		if err := Multiply(a.Name(), tr, mach, ModeShared, DefaultTuning, nil); err != nil {
			t.Fatalf("%s %dx%dx%d q=%d: %v", a.Name(), rows, cols, inner, q, err)
		}
		want := matrix.New(rows, cols)
		if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
			t.Fatal(err)
		}
		if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("%s %dx%dx%d q=%d: shared-staged result deviates from naive by %g",
				a.Name(), rows, cols, inner, q, diff)
		}
	})
}

// FuzzPipelinedExecutorVsSerial is the overlap counterpart: the same
// arbitrary shapes run through ModeSharedPipelined, whose stager
// prefetches and retires shared staging concurrently with the workers,
// and the result must be *bitwise* identical to the serial ModeShared
// run (same kernels, same per-core order — only the timing may differ),
// with identical per-level traffic. The seed corpus mirrors the shared
// one; `go test` replays it on every run (including the CI -race job),
// and `go test -fuzz` explores from there.
func FuzzPipelinedExecutorVsSerial(f *testing.F) {
	for i := range algo.Extended() {
		f.Add(uint8(i), uint8(12), uint8(9), uint8(10), uint8(4), uint64(i))
	}
	f.Add(uint8(0), uint8(13), uint8(7), uint8(11), uint8(4), uint64(23)) // ragged everywhere
	f.Add(uint8(2), uint8(17), uint8(17), uint8(3), uint8(4), uint64(31)) // inner < q
	f.Add(uint8(1), uint8(5), uint8(5), uint8(5), uint8(1), uint64(7))    // q=1
	f.Fuzz(func(t *testing.T, algoIdx, rowsRaw, colsRaw, innerRaw, qRaw uint8, seed uint64) {
		algos := algo.Extended()
		a := algos[int(algoIdx)%len(algos)]
		rows := int(rowsRaw%40) + 1
		cols := int(colsRaw%40) + 1
		inner := int(innerRaw%40) + 1
		q := int(qRaw%8) + 1

		mach := testMachine(4)
		mach.Q = q
		run := func(mode Mode) (*matrix.Triple, Traffic) {
			tr, err := matrix.NewTripleDims(rows, cols, inner, q, seed)
			if err != nil {
				t.Fatal(err)
			}
			team, err := NewTeam(mach.P)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				t.Fatal(err)
			}
			m, n, z := tr.Dims()
			prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Run(prog); err != nil {
				t.Fatalf("%s %dx%dx%d q=%d %v: %v", a.Name(), rows, cols, inner, q, mode, err)
			}
			return tr, ex.Traffic()
		}
		serial, serialT := run(ModeShared)
		pipe, pipeT := run(ModeSharedPipelined)
		if d := pipe.C.Dense().MaxAbsDiff(serial.C.Dense()); d != 0 {
			t.Fatalf("%s %dx%dx%d q=%d: pipelined result deviates from serial shared by %g",
				a.Name(), rows, cols, inner, q, d)
		}
		if pipeT != serialT {
			t.Fatalf("%s %dx%dx%d q=%d: pipelined traffic %+v differs from serial %+v",
				a.Name(), rows, cols, inner, q, pipeT, serialT)
		}
	})
}
