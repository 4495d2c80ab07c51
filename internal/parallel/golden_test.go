package parallel_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

// bitsHash is the FNV-64a hash of a matrix's values as IEEE-754 bit
// patterns, row by row: two matrices hash alike only if they agree in
// every bit, signed zeros and NaN payloads included.
func bitsHash(d *matrix.Dense) string {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			bits := math.Float64bits(d.At(i, j))
			for b := range buf {
				buf[b] = byte(bits >> (8 * b))
			}
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestResultBitsPinned pins the bits of executed results, where every
// other bitwise test compares two paths that would change together: C
// of every evaluated algorithm in every executor mode and of the
// sequential parallel.Reference, and the factors of the sequential
// lu.Factor and of lu.FactorParallelTuned in every mode. Each runs on
// an aligned shape (whole q×q tiles) and a ragged one, whose edge tiles
// have 13 rows, 14 columns and an inner dimension of 11, so the tile
// kernels run their full register blocks and both edge strips. A change
// to any kernel's rounding or accumulation order shows up here. The
// pins are amd64's: Go fuses x*y+z into one FMA instruction, rounded
// once, on arm64 and other architectures, and the bits differ there.
func TestResultBitsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("result bits are pinned on amd64; %s may fuse multiply-adds", runtime.GOARCH)
	}
	const q = 16
	modes := []parallel.Mode{parallel.ModePacked, parallel.ModeView, parallel.ModeShared, parallel.ModeSharedPipelined}
	mach := machine.Machine{P: 2, CS: 23, CD: 7, SigmaS: 1, SigmaD: 4, Q: q}
	var got []string

	gemms := []struct {
		label             string
		rows, cols, inner int
	}{{"64x48x80", 64, 48, 80}, {"45x30x27", 45, 30, 27}}
	for _, s := range gemms {
		tr, err := matrix.NewTripleDims(s.rows, s.cols, s.inner, q, 29)
		if err != nil {
			t.Fatal(err)
		}
		want, err := parallel.Reference(tr)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("Reference/%s: %s", s.label, bitsHash(want)))
		for _, a := range algo.All() {
			for _, mode := range modes {
				tr, err := matrix.NewTripleDims(s.rows, s.cols, s.inner, q, 29)
				if err != nil {
					t.Fatal(err)
				}
				if err := parallel.Multiply(a.Name(), tr, mach, mode, parallel.DefaultTuning, nil); err != nil {
					t.Fatalf("%s %v %s: %v", a.Name(), mode, s.label, err)
				}
				got = append(got, fmt.Sprintf("%s/%v/%s: %s", a.Name(), mode, s.label, bitsHash(tr.C.Dense())))
			}
		}
	}

	team, err := parallel.NewTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	for _, n := range []int{64, 61} {
		a := lu.RandomDominant(n, 31)
		seq := a.Clone()
		if err := lu.Factor(seq, q); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("lu.Factor/%d: %s", n, bitsHash(seq)))
		for _, mode := range modes {
			f := a.Clone()
			if _, err := lu.FactorParallelTuned(f, q, team, mode, lu.MachineFor(2, q), parallel.DefaultTuning); err != nil {
				t.Fatalf("LU %v n=%d: %v", mode, n, err)
			}
			got = append(got, fmt.Sprintf("lu.FactorParallelTuned/%v/%d: %s", mode, n, bitsHash(f)))
		}
	}

	if len(got) != len(pinnedBits) {
		t.Fatalf("%d results, %d pinned:\n%s", len(got), len(pinnedBits), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinnedBits[i] {
			t.Errorf("result %d:\n got  %s\n want %s", i, got[i], pinnedBits[i])
		}
	}
}

// pinnedBits holds the results' hashes in the order the test makes
// them.
var pinnedBits = []string{
	"Reference/64x48x80: e79a3772f6fad6ae",
	"Shared Opt./packed/64x48x80: e79a3772f6fad6ae",
	"Shared Opt./view/64x48x80: e79a3772f6fad6ae",
	"Shared Opt./shared/64x48x80: e79a3772f6fad6ae",
	"Shared Opt./shared-pipelined/64x48x80: e79a3772f6fad6ae",
	"Distributed Opt./packed/64x48x80: e79a3772f6fad6ae",
	"Distributed Opt./view/64x48x80: e79a3772f6fad6ae",
	"Distributed Opt./shared/64x48x80: e79a3772f6fad6ae",
	"Distributed Opt./shared-pipelined/64x48x80: e79a3772f6fad6ae",
	"Tradeoff/packed/64x48x80: e79a3772f6fad6ae",
	"Tradeoff/view/64x48x80: e79a3772f6fad6ae",
	"Tradeoff/shared/64x48x80: e79a3772f6fad6ae",
	"Tradeoff/shared-pipelined/64x48x80: e79a3772f6fad6ae",
	"Outer Product/packed/64x48x80: e79a3772f6fad6ae",
	"Outer Product/view/64x48x80: e79a3772f6fad6ae",
	"Outer Product/shared/64x48x80: e79a3772f6fad6ae",
	"Outer Product/shared-pipelined/64x48x80: e79a3772f6fad6ae",
	"Shared Equal/packed/64x48x80: e79a3772f6fad6ae",
	"Shared Equal/view/64x48x80: e79a3772f6fad6ae",
	"Shared Equal/shared/64x48x80: e79a3772f6fad6ae",
	"Shared Equal/shared-pipelined/64x48x80: e79a3772f6fad6ae",
	"Distributed Equal/packed/64x48x80: e79a3772f6fad6ae",
	"Distributed Equal/view/64x48x80: e79a3772f6fad6ae",
	"Distributed Equal/shared/64x48x80: e79a3772f6fad6ae",
	"Distributed Equal/shared-pipelined/64x48x80: e79a3772f6fad6ae",
	"Reference/45x30x27: d7991f5ae1bff620",
	"Shared Opt./packed/45x30x27: d7991f5ae1bff620",
	"Shared Opt./view/45x30x27: d7991f5ae1bff620",
	"Shared Opt./shared/45x30x27: d7991f5ae1bff620",
	"Shared Opt./shared-pipelined/45x30x27: d7991f5ae1bff620",
	"Distributed Opt./packed/45x30x27: d7991f5ae1bff620",
	"Distributed Opt./view/45x30x27: d7991f5ae1bff620",
	"Distributed Opt./shared/45x30x27: d7991f5ae1bff620",
	"Distributed Opt./shared-pipelined/45x30x27: d7991f5ae1bff620",
	"Tradeoff/packed/45x30x27: d7991f5ae1bff620",
	"Tradeoff/view/45x30x27: d7991f5ae1bff620",
	"Tradeoff/shared/45x30x27: d7991f5ae1bff620",
	"Tradeoff/shared-pipelined/45x30x27: d7991f5ae1bff620",
	"Outer Product/packed/45x30x27: d7991f5ae1bff620",
	"Outer Product/view/45x30x27: d7991f5ae1bff620",
	"Outer Product/shared/45x30x27: d7991f5ae1bff620",
	"Outer Product/shared-pipelined/45x30x27: d7991f5ae1bff620",
	"Shared Equal/packed/45x30x27: d7991f5ae1bff620",
	"Shared Equal/view/45x30x27: d7991f5ae1bff620",
	"Shared Equal/shared/45x30x27: d7991f5ae1bff620",
	"Shared Equal/shared-pipelined/45x30x27: d7991f5ae1bff620",
	"Distributed Equal/packed/45x30x27: d7991f5ae1bff620",
	"Distributed Equal/view/45x30x27: d7991f5ae1bff620",
	"Distributed Equal/shared/45x30x27: d7991f5ae1bff620",
	"Distributed Equal/shared-pipelined/45x30x27: d7991f5ae1bff620",
	"lu.Factor/64: fbb7e42934508a7f",
	"lu.FactorParallelTuned/packed/64: fbb7e42934508a7f",
	"lu.FactorParallelTuned/view/64: fbb7e42934508a7f",
	"lu.FactorParallelTuned/shared/64: fbb7e42934508a7f",
	"lu.FactorParallelTuned/shared-pipelined/64: fbb7e42934508a7f",
	"lu.Factor/61: 649259b7c4c8474a",
	"lu.FactorParallelTuned/packed/61: 649259b7c4c8474a",
	"lu.FactorParallelTuned/view/61: 649259b7c4c8474a",
	"lu.FactorParallelTuned/shared/61: 649259b7c4c8474a",
	"lu.FactorParallelTuned/shared-pipelined/61: 649259b7c4c8474a",
}
