package lu

import (
	"testing"

	"repro/internal/parallel"
)

// FuzzLUPackedVsNaive cross-checks the schedule-driven factorisation —
// arena staging, the packed factor/trsm/mulsub kernels and the strip
// scheduling — against the sequential tiled Factor for arbitrary orders,
// tile sizes, core counts and every physical staging mode (packed,
// shared, shared-pipelined). The result must be bitwise identical: all
// paths run the very same kernels in the same per-tile order, so any
// deviation is a staging, scheduling or stager hand-off bug, not
// floating-point noise. The seed corpus mirrors the GEMM fuzz harness:
// aligned and ragged shapes, q=1, single-tile matrices and p > nb, each
// staging mode seeded; `go test` replays it on every run (including the
// CI -race job), and `go test -fuzz` explores from there.
func FuzzLUPackedVsNaive(f *testing.F) {
	f.Add(uint8(16), uint8(4), uint8(4), uint8(0), uint64(1))  // aligned, several steps
	f.Add(uint8(13), uint8(4), uint8(4), uint8(0), uint64(23)) // ragged edge tile
	f.Add(uint8(23), uint8(5), uint8(3), uint8(1), uint64(29)) // ragged, shared mode
	f.Add(uint8(5), uint8(1), uint8(2), uint8(0), uint64(7))   // q=1
	f.Add(uint8(3), uint8(8), uint8(4), uint8(1), uint64(11))  // single tile, p > nb
	f.Add(uint8(20), uint8(7), uint8(1), uint8(0), uint64(3))  // single core
	f.Add(uint8(23), uint8(5), uint8(3), uint8(2), uint64(29)) // ragged, pipelined
	f.Add(uint8(16), uint8(4), uint8(4), uint8(2), uint64(1))  // aligned, pipelined
	f.Add(uint8(3), uint8(8), uint8(4), uint8(2), uint64(11))  // single tile, pipelined
	f.Fuzz(func(t *testing.T, nRaw, qRaw, pRaw, modeRaw uint8, seed uint64) {
		n := int(nRaw%48) + 1
		q := int(qRaw%9) + 1
		p := int(pRaw%6) + 1
		mode := [...]parallel.Mode{parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined}[modeRaw%3]

		orig := RandomDominant(n, seed)
		want := orig.Clone()
		if err := Factor(want, q); err != nil {
			t.Fatalf("n=%d q=%d: sequential: %v", n, q, err)
		}

		team, err := parallel.NewTeam(p)
		if err != nil {
			t.Fatal(err)
		}
		defer team.Close()
		got := orig.Clone()
		if _, err := FactorParallelTuned(got, q, team, mode, MachineFor(p, q), parallel.DefaultTuning); err != nil {
			t.Fatalf("n=%d q=%d p=%d %v: %v", n, q, p, mode, err)
		}
		if !got.Equal(want) {
			t.Fatalf("n=%d q=%d p=%d %v: executed LU deviates from sequential Factor by %g",
				n, q, p, mode, got.MaxAbsDiff(want))
		}
	})
}
