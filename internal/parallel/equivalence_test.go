package parallel

import (
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// The single-source invariant of the schedule IR: for every algorithm,
// the real executor's per-core and shared access streams are identical,
// operation for operation, to the streams a simulator probe observes for
// the same declared machine — under IDEAL and under LRU, and in both
// physical staging modes (per-core arenas only, and the full two-level
// hierarchy with the shared arena). Combined with a numerical check
// against the naive reference product, this pins down that the executor
// really runs the schedule the simulator analysed.

func equivalenceWorkloads() [][3]int {
	return [][3]int{
		{4, 4, 4},  // divisible by the small machine's µ-grid
		{5, 3, 2},  // ragged in every dimension
		{7, 6, 5},  // several tiles with ragged edges
		{1, 9, 2},  // single block row
		{12, 2, 7}, // tall-skinny
	}
}

// physicalModes are the executor modes that move real data and must
// all satisfy the equivalence invariant — including the pipelined
// shared mode, whose stager overlaps staging with compute but must
// leave every stream untouched.
func physicalModes() []Mode { return []Mode{ModePacked, ModeShared, ModeSharedPipelined} }

func TestSimExecStreamEquivalence(t *testing.T) {
	mach := testMachine(4)
	const q = 4
	for _, a := range algo.Extended() {
		for _, mode := range physicalModes() {
			for _, s := range equivalenceWorkloads() {
				m, n, z := s[0], s[1], s[2]

				// Real execution, streams recorded at the executor.
				tr, err := matrix.NewTriple(m, n, z, q, 17)
				if err != nil {
					t.Fatal(err)
				}
				mq := mach
				mq.Q = q
				execRec := schedule.NewRecorder(mach.P)
				if err := Multiply(a.Name(), tr, mq, mode, DefaultTuning, execRec.Probe()); err != nil {
					t.Fatalf("%s %v %v: execute: %v", a.Name(), s, mode, err)
				}

				// The executed C must match the naive reference product.
				want := matrix.New(tr.C.Dense().Rows(), tr.C.Dense().Cols())
				if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
					t.Fatal(err)
				}
				if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-10 {
					t.Fatalf("%s %v %v: C deviates from MulNaive by %g", a.Name(), s, mode, diff)
				}

				// Simulation under IDEAL and LRU must probe the same streams.
				for _, setting := range []algo.Setting{algo.Ideal, algo.LRU} {
					simRec := schedule.NewRecorder(mach.P)
					w := algo.Workload{M: m, N: n, Z: z, Probe: simRec.Probe()}
					if _, err := algo.Run(a, mach, mach, w, setting); err != nil {
						t.Fatalf("%s %v %v: simulate: %v", a.Name(), s, setting, err)
					}
					if d := simRec.Diff(execRec); d != "" {
						t.Fatalf("%s %v %v: simulator (%v) and executor streams diverge: %s",
							a.Name(), s, mode, setting, d)
					}
				}
			}
		}
	}
}

// The same invariant with ragged coefficient dimensions: when n mod q ≠ 0
// the edge tiles are smaller than q×q, the physical executors move
// partial blocks through the arenas — in ModeShared through *two* levels
// of them — and the streams must still match the simulator's operation
// for operation while the numbers match the naive reference.
func TestSimExecStreamEquivalenceRagged(t *testing.T) {
	mach := testMachine(4)
	const q = 4
	// Coefficient shapes with no dimension a multiple of q.
	shapes := [][3]int{
		{13, 7, 11}, // every dimension ragged
		{8, 10, 4},  // cols ragged only (rows and inner aligned)
		{17, 17, 3}, // inner smaller than q, ragged rows/cols
	}
	for _, a := range algo.Extended() {
		for _, mode := range physicalModes() {
			for _, s := range shapes {
				rows, cols, inner := s[0], s[1], s[2]
				tr, err := matrix.NewTripleDims(rows, cols, inner, q, 23)
				if err != nil {
					t.Fatal(err)
				}
				mq := mach
				mq.Q = q
				execRec := schedule.NewRecorder(mach.P)
				if err := Multiply(a.Name(), tr, mq, mode, DefaultTuning, execRec.Probe()); err != nil {
					t.Fatalf("%s %v %v: execute: %v", a.Name(), s, mode, err)
				}

				// Packed↔naive: the executed C must match the naive product.
				want := matrix.New(rows, cols)
				if err := matrix.MulNaive(want, tr.A.Dense(), tr.B.Dense()); err != nil {
					t.Fatal(err)
				}
				if diff := tr.C.Dense().MaxAbsDiff(want); diff > 1e-10 {
					t.Fatalf("%s %v %v: C deviates from MulNaive by %g", a.Name(), s, mode, diff)
				}

				// The simulator sees block dimensions ⌈dim/q⌉.
				m, n, z := tr.Dims()
				for _, setting := range []algo.Setting{algo.Ideal, algo.LRU} {
					simRec := schedule.NewRecorder(mach.P)
					w := algo.Workload{M: m, N: n, Z: z, Probe: simRec.Probe()}
					if _, err := algo.Run(a, mach, mach, w, setting); err != nil {
						t.Fatalf("%s %v %v: simulate: %v", a.Name(), s, setting, err)
					}
					if d := simRec.Diff(execRec); d != "" {
						t.Fatalf("%s %v %v: simulator (%v) and executor streams diverge: %s",
							a.Name(), s, mode, setting, d)
					}
				}
			}
		}
	}
}

// The σS/σD split is measured, not declared: in the shared-level modes
// the executor's physical MS stream (memory↔shared arena) must count
// exactly the IDEAL simulator's shared misses and memory write-backs,
// and its MD stream (shared↔core refills) the simulator's per-core
// distributed misses — block for block, core for core. This is the
// acceptance criterion of the shared level: two physically distinct
// streams, each equal to its simulated counterpart. The pipelined mode
// overlaps the MS stream with compute, so its equality here is the
// "only timing overlaps, never traffic" invariant.
func TestSharedTrafficMatchesSimulator(t *testing.T) {
	mach := testMachine(4)
	const q = 4
	shapes := [][3]int{
		{4, 4, 4},
		{7, 6, 5}, // ragged block grid
	}
	for _, a := range algo.Extended() {
		for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
			for _, s := range shapes {
				m, n, z := s[0], s[1], s[2]
				w := algo.Workload{M: m, N: n, Z: z}
				prog, err := a.Schedule(mach, w)
				if err != nil {
					t.Fatal(err)
				}
				if prog.DemandDriven {
					// No staging schedule: nothing flows through the arenas
					// and the IDEAL setting is unavailable.
					continue
				}
				t.Run(fmt.Sprintf("%s/%v/%dx%dx%d", a.Name(), mode, m, n, z), func(t *testing.T) {
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
					res, err := algo.RunIdeal(a, mach, w)
					if err != nil {
						t.Fatalf("simulate: %v", err)
					}
					tra := ex.Traffic()
					if tra.MS.StageBlocks != res.MS {
						t.Fatalf("executor staged %d shared blocks, simulator counts MS=%d",
							tra.MS.StageBlocks, res.MS)
					}
					if tra.MS.WriteBackBlocks != res.WriteBack {
						t.Fatalf("executor wrote back %d blocks to memory, simulator counts %d",
							tra.MS.WriteBackBlocks, res.WriteBack)
					}
					var mdSum uint64
					for c, want := range res.MDPerCore {
						if got := ex.CoreTraffic(c).StageBlocks; got != want {
							t.Fatalf("core %d refilled %d blocks, simulator counts MD=%d", c, got, want)
						}
						mdSum += want
					}
					if tra.MD.StageBlocks != mdSum {
						t.Fatalf("aggregate MD %d blocks, simulator sum %d", tra.MD.StageBlocks, mdSum)
					}
					// Aligned q×q tiles: every block transfer moves exactly q²
					// float64 values, so the byte streams are block counts
					// scaled by the tile size.
					if want := tra.MS.StageBlocks * q * q * 8; tra.MS.StageBytes != want {
						t.Fatalf("MS stage bytes %d, want %d", tra.MS.StageBytes, want)
					}
					if want := tra.MD.StageBlocks * q * q * 8; tra.MD.StageBytes != want {
						t.Fatalf("MD stage bytes %d, want %d", tra.MD.StageBytes, want)
					}
				})
			}
		}
	}
}

// In ModePacked there is no shared level: the whole physical stream is
// distributed-level fills from memory, MS stays zero, and the MD fill
// count still equals the simulator's per-core distributed misses.
func TestPackedTrafficIsDistributedOnly(t *testing.T) {
	mach := testMachine(4)
	const q = 4
	w := algo.Workload{M: 4, N: 4, Z: 4}
	a, err := algo.ByName("Tradeoff")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := a.Schedule(mach, w)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := matrix.NewTriple(4, 4, 4, q, 29)
	if err != nil {
		t.Fatal(err)
	}
	team, err := NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, ModePacked, mach.CD, mach.CS)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(prog); err != nil {
		t.Fatal(err)
	}
	res, err := algo.RunIdeal(a, mach, w)
	if err != nil {
		t.Fatal(err)
	}
	tra := ex.Traffic()
	if tra.MS != (LevelTraffic{}) {
		t.Fatalf("packed mode reported shared traffic: %+v", tra.MS)
	}
	var mdSum uint64
	for _, v := range res.MDPerCore {
		mdSum += v
	}
	if tra.MD.StageBlocks != mdSum {
		t.Fatalf("packed MD %d blocks, simulator sum %d", tra.MD.StageBlocks, mdSum)
	}
}

// The recorded streams must carry real work: every core stream contains
// the read-read-write triples of its compute operations, and the
// per-core write counts sum to m·n·z.
func TestExecStreamCoversAllProducts(t *testing.T) {
	mach := testMachine(4)
	for _, a := range algo.Extended() {
		tr, err := matrix.NewTriple(6, 5, 4, 4, 3)
		if err != nil {
			t.Fatal(err)
		}
		mq := mach
		mq.Q = 4
		rec := schedule.NewRecorder(mach.P)
		if err := Multiply(a.Name(), tr, mq, ModePacked, DefaultTuning, rec.Probe()); err != nil {
			t.Fatalf("%s: %v", a.Name(), err)
		}
		var writes int
		for _, stream := range rec.Cores {
			for _, acc := range stream {
				if acc.Write {
					if acc.Line.Matrix != matrix.MatC {
						t.Fatalf("%s: write to %v, only C is written", a.Name(), acc.Line)
					}
					writes++
				}
			}
		}
		if writes != 6*5*4 {
			t.Fatalf("%s: %d C writes in the stream, want %d", a.Name(), writes, 6*5*4)
		}
	}
}
