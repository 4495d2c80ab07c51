package parallel

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/machine"
	"repro/internal/matrix"
)

// Multi-chip executions: the shared level split over several chips,
// every line staged in its home chip's arena, foreign refills crossing
// the physical inter-chip stream. The invariants: the results stay
// bitwise equal to the single-chip (and hence serial) execution, the
// MS/MD streams are invariant across chip counts, and the inter-chip
// pair matrix equals the extended IDEAL simulator's, block for block,
// chip pair for chip pair.

// chipMachine is testMachine split over chips (CS=157 comfortably
// holds the per-chip inclusion floor (p/chips)·CD = (4/2)·7).
func chipMachine(p, chips int) machine.Machine {
	m := testMachine(p)
	m.Chips = chips
	return m
}

// TestMultiChipTrafficMatchesSimulator is the acceptance criterion of
// the chip dimension: for every algorithm, shared-level mode and chip
// count, the executor's physical traffic equals the extended IDEAL
// simulator's — MS and write-backs in total, MD core for core, and the
// inter-chip stream pair for pair — while MS/MD stay invariant across
// chip counts (a foreign refill is counted in addition to its MD
// block, never instead of it) and the result matches the naive
// product.
func TestMultiChipTrafficMatchesSimulator(t *testing.T) {
	const q = 4
	shapes := [][3]int{
		{4, 4, 4},
		{7, 6, 5}, // ragged block grid, n mod (grid·µ) ≠ 0 on the chip path
	}
	for _, a := range algo.Extended() {
		for _, s := range shapes {
			m, n, z := s[0], s[1], s[2]
			w := algo.Workload{M: m, N: n, Z: z}
			base := map[Mode]Traffic{} // chips=1 traffic per mode
			for _, chips := range []int{1, 2} {
				mach := chipMachine(4, chips)
				prog, err := a.Schedule(mach, w)
				if err != nil {
					t.Fatal(err)
				}
				if prog.DemandDriven {
					continue
				}
				res, err := algo.RunIdeal(a, mach, w)
				if err != nil {
					t.Fatalf("%s chips=%d: simulate: %v", a.Name(), chips, err)
				}
				for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
					t.Run(fmt.Sprintf("%s/%v/chips%d/%dx%dx%d", a.Name(), mode, chips, m, n, z), func(t *testing.T) {
						tr, err := matrix.NewTriple(m, n, z, q, 29)
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
						if err := ex.Run(prog); err != nil {
							t.Fatalf("execute: %v", err)
						}
						want := matrix.New(tr.C.Dense().Rows(), tr.C.Dense().Cols())
						if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
							t.Fatal(err)
						}
						if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-10 {
							t.Fatalf("chips=%d result deviates from naive by %g", chips, diff)
						}

						tra := ex.Traffic()
						if tra.MS.StageBlocks != res.MS {
							t.Fatalf("executor staged %d shared blocks, simulator counts MS=%d", tra.MS.StageBlocks, res.MS)
						}
						if tra.MS.WriteBackBlocks != res.WriteBack {
							t.Fatalf("executor wrote back %d blocks, simulator counts %d", tra.MS.WriteBackBlocks, res.WriteBack)
						}
						for c, wantMD := range res.MDPerCore {
							if got := ex.CoreTraffic(c).StageBlocks; got != wantMD {
								t.Fatalf("core %d refilled %d blocks, simulator counts MD=%d", c, got, wantMD)
							}
						}

						// The inter-chip stream, chip pair for chip pair.
						if got := ex.Chips(); got != chips {
							t.Fatalf("executor ran %d chips, declared %d", got, chips)
						}
						pairs := ex.InterChipPairs()
						var icStages, icWBs uint64
						for home := range pairs {
							for user := range pairs[home] {
								if got, want := pairs[home][user].StageBlocks, res.ICStagePairs[home][user]; got != want {
									t.Fatalf("chip %d→%d: executor staged %d foreign blocks, simulator counts %d", home, user, got, want)
								}
								if got, want := pairs[home][user].WriteBackBlocks, res.ICWBPairs[home][user]; got != want {
									t.Fatalf("chip %d←%d: executor merged %d foreign blocks, simulator counts %d", home, user, got, want)
								}
								icStages += pairs[home][user].StageBlocks
								icWBs += pairs[home][user].WriteBackBlocks
							}
						}
						if icStages != res.ICStages || icWBs != res.ICWriteBacks {
							t.Fatalf("inter-chip totals stage=%d wb=%d, simulator counts %d/%d", icStages, icWBs, res.ICStages, res.ICWriteBacks)
						}
						if tra.IC.StageBlocks != icStages || tra.IC.WriteBackBlocks != icWBs {
							t.Fatalf("Traffic.IC %+v disagrees with the pair matrix (%d stages, %d write-backs)", tra.IC, icStages, icWBs)
						}
						if chips == 1 && tra.IC != (LevelTraffic{}) {
							t.Fatalf("single chip moved inter-chip traffic: %+v", tra.IC)
						}

						// MS/MD invariance: splitting the shared level over chips
						// must not change either stream by a single block or byte.
						if chips == 1 {
							base[mode] = tra
						} else if b, ok := base[mode]; ok && (tra.MS != b.MS || tra.MD != b.MD) {
							t.Fatalf("chips=%d changed the MS/MD streams:\n  1 chip:  MS=%+v MD=%+v\n  %d chips: MS=%+v MD=%+v",
								chips, b.MS, b.MD, chips, tra.MS, tra.MD)
						}
					})
				}
			}
		}
	}
}

// TestMultiChipDistributedOptStaysOnChip backs the README's topology
// note with exact counts: on the benchmark host model split over two
// chips (p=4, q=16, n=128 — the machine `cmd/gemm -order 8 -q 16
// -bench-cores 4 -bench-chips 2` runs), Distributed Opt.'s home policy
// keeps every refill and merge on-chip, while Shared Opt., which homes
// everything on chip 0, streams a fixed share of its refills and merges
// over the interconnect — with the optimizer off and on.
func TestMultiChipDistributedOptStaysOnChip(t *testing.T) {
	const p, q, order = 4, 16, 8
	mach := machine.Machine{
		P:      p,
		CS:     machine.BlocksFromBytes(8<<20, q, 1.0),
		CD:     machine.BlocksFromBytes(256<<10, q, 2.0/3.0),
		SigmaS: machine.DefaultSigmaS,
		SigmaD: machine.DefaultSigmaD,
		Q:      q,
		Chips:  2,
	}
	if err := mach.Validate(); err != nil {
		t.Fatal(err)
	}
	ic := func(name string, optimize bool) LevelTraffic {
		t.Helper()
		a, err := algo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := a.Schedule(mach, algo.Square(order))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := matrix.NewTriple(order, order, order, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		team, err := NewTeam(p)
		if err != nil {
			t.Fatal(err)
		}
		defer team.Close()
		ex, err := NewExecutor(team, tr, nil, ModeShared, mach.CD, mach.CS)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetTuning(Tuning{Optimize: optimize})
		if err := ex.Run(prog); err != nil {
			t.Fatalf("%s optimize=%v: %v", name, optimize, err)
		}
		return ex.Traffic().IC
	}
	for _, c := range []struct {
		optimize              bool
		sharedStage, sharedWB uint64 // Shared Opt.'s IC bytes
	}{
		{false, 1310720, 524288},
		{true, 393216, 65536},
	} {
		shared := ic("Shared Opt.", c.optimize)
		dist := ic("Distributed Opt.", c.optimize)
		if shared.StageBytes != c.sharedStage || shared.WriteBackBytes != c.sharedWB {
			t.Fatalf("optimize=%v: Shared Opt. moved %d IC stage and %d IC write-back bytes, want %d and %d",
				c.optimize, shared.StageBytes, shared.WriteBackBytes, c.sharedStage, c.sharedWB)
		}
		if dist.StageBytes >= shared.StageBytes {
			t.Fatalf("optimize=%v: Distributed Opt. staged %d IC bytes, not below Shared Opt.'s %d",
				c.optimize, dist.StageBytes, shared.StageBytes)
		}
		if dist.WriteBackBlocks != 0 || dist.WriteBackBytes != 0 {
			t.Fatalf("optimize=%v: Distributed Opt. wrote back over the interconnect: %+v", c.optimize, dist)
		}
	}
}

// TestMultiChipRunTwiceReproducible: a reused executor whose arenas
// were drained by the previous Run must reproduce a chips=2 execution
// exactly — same numbers bit for bit, same traffic on all three
// streams.
func TestMultiChipRunTwiceReproducible(t *testing.T) {
	mach := chipMachine(4, 2)
	const q = 4
	w := algo.Workload{M: 5, N: 3, Z: 2} // ragged over the µ-grid
	for _, a := range algo.Extended() {
		prog, err := a.Schedule(mach, w)
		if err != nil {
			t.Fatal(err)
		}
		if prog.DemandDriven {
			continue
		}
		for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
			tr, err := matrix.NewTriple(w.M, w.N, w.Z, q, 41)
			if err != nil {
				t.Fatal(err)
			}
			team, err := NewTeam(mach.P)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(team, tr, nil, mode, mach.CD, mach.CS)
			if err != nil {
				team.Close()
				t.Fatal(err)
			}
			if err := ex.Run(prog); err != nil {
				team.Close()
				t.Fatalf("%s %v: first run: %v", a.Name(), mode, err)
			}
			first := tr.C.Dense().Clone()
			firstT := ex.Traffic()
			tr.C.Dense().Zero()
			if err := ex.Run(prog); err != nil {
				team.Close()
				t.Fatalf("%s %v: second run: %v", a.Name(), mode, err)
			}
			if d := tr.C.Dense().MaxAbsDiff(first); d != 0 {
				team.Close()
				t.Fatalf("%s %v: second chips=2 run deviates by %g", a.Name(), mode, d)
			}
			if got := ex.Traffic(); got != firstT {
				team.Close()
				t.Fatalf("%s %v: second run traffic %+v differs from first %+v", a.Name(), mode, got, firstT)
			}
			team.Close()
		}
	}
}

// TestMultiChipRaggedCoefficients drives coefficient shapes with
// n mod q ≠ 0 through the chip path: partial boundary tiles cross
// chip-homed shared arenas, possibly the interconnect, and both core
// arenas, and must still match the naive product.
func TestMultiChipRaggedCoefficients(t *testing.T) {
	mach := chipMachine(4, 2)
	const q = 4
	shapes := [][3]int{
		{13, 7, 11}, // every dimension ragged
		{17, 17, 3}, // inner smaller than q
	}
	mach.Q = q
	for _, a := range algo.Extended() {
		for _, s := range shapes {
			for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
				tr, err := matrix.NewTripleDims(s[0], s[1], s[2], q, 23)
				if err != nil {
					t.Fatal(err)
				}
				if err := Multiply(a.Name(), tr, mach, mode, DefaultTuning, nil); err != nil {
					t.Fatalf("%s %v %v: %v", a.Name(), s, mode, err)
				}
				want := matrix.New(s[0], s[1])
				if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
					t.Fatal(err)
				}
				if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-9 {
					t.Fatalf("%s %v %v: chips=2 result deviates from naive by %g", a.Name(), s, mode, diff)
				}
			}
		}
	}
}

// FuzzMultiChipSharedVsNaive replays the shared-executor corpus with
// the shared level split over two chips: arbitrary shapes, block sizes
// and algorithms flow through per-chip arenas and the inter-chip
// stream, and the result must match the naive product. The corpus runs
// on every `go test` (including the CI -race job).
func FuzzMultiChipSharedVsNaive(f *testing.F) {
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
		mach := chipMachine(4, 2)
		mach.Q = q
		if err := Multiply(a.Name(), tr, mach, ModeShared, DefaultTuning, nil); err != nil {
			t.Fatalf("%s %dx%dx%d q=%d: %v", a.Name(), rows, cols, inner, q, err)
		}
		want := matrix.New(rows, cols)
		if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
			t.Fatal(err)
		}
		if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-9 {
			t.Fatalf("%s %dx%dx%d q=%d: chips=2 result deviates from naive by %g",
				a.Name(), rows, cols, inner, q, diff)
		}
	})
}
