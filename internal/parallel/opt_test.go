package parallel

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/algo"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

// The optimizer's executor-level contract: with Tuning.Optimize on, the
// executor rewrites every staged program through schedule.Optimize
// before validation, planning and replay. The rewrite must never change
// a result bit — only shrink the MS/MD streams — and the shrinkage must
// match the OptimizeReport ledger block for block.

// bitEqual compares two matrices bit for bit. Unlike a difference norm
// it is NaN-safe, so fuzz-generated programs whose kernels overflow
// still compare deterministically.
func bitEqual(a, b *matrix.Dense) bool {
	x, y := a.Data(), b.Data()
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// trafficLEQ reports whether opt is no worse than base in every counter.
func trafficLEQ(opt, base LevelTraffic) bool {
	return opt.StageBlocks <= base.StageBlocks &&
		opt.StageBytes <= base.StageBytes &&
		opt.WriteBackBlocks <= base.WriteBackBlocks &&
		opt.WriteBackBytes <= base.WriteBackBytes
}

// optCellResult captures everything one executor run exposes that the
// optimizer could have perturbed.
type optCellResult struct {
	c    *matrix.Dense
	tra  Traffic
	md   []LevelTraffic
	rep  schedule.OptimizeReport
	plan *schedule.PipelinePlan
	prog *schedule.Program // the program the executor actually replayed
}

// runOptCell executes one (algorithm, machine, mode, shape) cell with
// the optimizer on or off. Strict verify is always on, so a rewrite
// with verifier findings fails the run — "provably safe" is enforced at
// the executor boundary, not just in schedule's own tests.
func runOptCell(t *testing.T, a algo.Algorithm, mach machine.Machine, mode Mode, dims [3]int, q int, optimize bool) optCellResult {
	t.Helper()
	tr, err := matrix.NewTripleDims(dims[0], dims[1], dims[2], q, 31)
	if err != nil {
		t.Fatal(err)
	}
	mq := mach
	mq.Q = q
	m, n, z := tr.Dims()
	prog, err := a.Schedule(mq, algo.Workload{M: m, N: n, Z: z})
	if err != nil {
		t.Fatalf("%s: schedule: %v", a.Name(), err)
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
	ex.SetTuning(Tuning{Optimize: optimize})
	ex.SetStrictVerify(true)
	if err := ex.Run(prog); err != nil {
		t.Fatalf("%s dims=%v mode=%v optimize=%v: run: %v", a.Name(), dims, mode, optimize, err)
	}
	md := make([]LevelTraffic, mach.P)
	for c := range md {
		md[c] = ex.CoreTraffic(c)
	}
	replayed := prog
	if ex.comp != nil {
		replayed = ex.comp.prog
	}
	return optCellResult{c: tr.C.Dense(), tra: ex.Traffic(), md: md, rep: ex.OptimizeReport(), plan: ex.Plan(), prog: replayed}
}

// TestOptimizedExecutorMatchesBaseline pins the optimized executor to
// the baseline across the full algorithm × mode × chips grid, aligned
// and ragged: results bitwise identical, every traffic counter ≤, and
// the measured block deltas exactly equal to the OptimizeReport ledger.
func TestOptimizedExecutorMatchesBaseline(t *testing.T) {
	const q = 4
	shapes := [][3]int{
		{16, 16, 16}, // 4×4×4 aligned blocks
		{29, 23, 17}, // ragged in every dimension
	}
	for _, chips := range []int{1, 2} {
		mach := testMachine(4)
		mach.Chips = chips
		for _, a := range algo.Extended() {
			for _, mode := range physicalModes() {
				for _, s := range shapes {
					name := fmt.Sprintf("%s dims=%v chips=%d mode=%v", a.Name(), s, chips, mode)
					base := runOptCell(t, a, mach, mode, s, q, false)
					opt := runOptCell(t, a, mach, mode, s, q, true)
					if !bitEqual(base.c, opt.c) {
						t.Fatalf("%s: optimized C differs from baseline", name)
					}
					if !trafficLEQ(opt.tra.MS, base.tra.MS) {
						t.Fatalf("%s: optimized MS exceeds baseline: %+v > %+v", name, opt.tra.MS, base.tra.MS)
					}
					if !trafficLEQ(opt.tra.MD, base.tra.MD) {
						t.Fatalf("%s: optimized MD exceeds baseline: %+v > %+v", name, opt.tra.MD, base.tra.MD)
					}
					if !trafficLEQ(opt.tra.IC, base.tra.IC) {
						t.Fatalf("%s: optimized IC exceeds baseline: %+v > %+v", name, opt.tra.IC, base.tra.IC)
					}
					for c := range base.md {
						if !trafficLEQ(opt.md[c], base.md[c]) {
							t.Fatalf("%s: core %d optimized MD exceeds baseline: %+v > %+v",
								name, c, opt.md[c], base.md[c])
						}
					}
					// The ledger must account for every saved block
					// exactly — the real machine's deltas are the
					// report's elision counts, not an estimate. In
					// packed mode driver ops move no data, so only the
					// core ledger is observable.
					rep := opt.rep
					if mode != ModePacked {
						if d := base.tra.MS.StageBlocks - opt.tra.MS.StageBlocks; d != rep.Shared.ElidedStages {
							t.Fatalf("%s: MS stage delta %d ≠ ledger %d", name, d, rep.Shared.ElidedStages)
						}
						if d := base.tra.MS.WriteBackBlocks - opt.tra.MS.WriteBackBlocks; d != rep.Shared.ElidedWriteBacks {
							t.Fatalf("%s: MS writeback delta %d ≠ ledger %d", name, d, rep.Shared.ElidedWriteBacks)
						}
					}
					if d := base.tra.MD.StageBlocks - opt.tra.MD.StageBlocks; d != rep.Core.ElidedStages {
						t.Fatalf("%s: MD stage delta %d ≠ ledger %d", name, d, rep.Core.ElidedStages)
					}
					if d := base.tra.MD.WriteBackBlocks - opt.tra.MD.WriteBackBlocks; d != rep.Core.ElidedWriteBacks {
						t.Fatalf("%s: MD writeback delta %d ≠ ledger %d", name, d, rep.Core.ElidedWriteBacks)
					}
				}
			}
		}
	}
}

// TestOptimizedPipelinedPlansOptimizedStream checks the pipelined
// interaction: the executor plans the *optimized* stream (the plan must
// verify against the rewritten program, not the source), and the
// pipelined replay of that stream stays bitwise- and traffic-identical
// to the serial shared replay of the same stream.
func TestOptimizedPipelinedPlansOptimizedStream(t *testing.T) {
	const q = 4
	mach := testMachine(4)
	dims := [3]int{29, 23, 17}
	changed := 0
	for _, a := range algo.Extended() {
		serial := runOptCell(t, a, mach, ModeShared, dims, q, true)
		piped := runOptCell(t, a, mach, ModeSharedPipelined, dims, q, true)
		if piped.prog.DemandDriven {
			continue // no staging schedule, nothing to plan or optimize
		}
		if !bitEqual(serial.c, piped.c) {
			t.Fatalf("%s: pipelined optimized C differs from serial optimized", a.Name())
		}
		if serial.tra != piped.tra {
			t.Fatalf("%s: pipelined optimized traffic %+v differs from serial %+v",
				a.Name(), piped.tra, serial.tra)
		}
		if piped.plan == nil {
			t.Fatalf("%s: pipelined run produced no plan", a.Name())
		}
		if fs := verify.Plan(piped.prog, piped.plan, mach.CS); len(fs) != 0 {
			t.Fatalf("%s: plan over optimized stream has %d verifier findings, first: %v",
				a.Name(), len(fs), fs[0])
		}
		if piped.rep.Changed {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("optimizer changed no program on the whole grid — pipelined interaction untested")
	}
}

// TestOptimizedTrafficMatchesSimulator replays the externally-optimized
// program through the IDEAL cache simulator and asserts the real
// executor (optimizing internally) moves exactly the streams the
// simulator predicts — the single-source invariant survives the
// rewrite.
func TestOptimizedTrafficMatchesSimulator(t *testing.T) {
	const q = 4
	shapes := [][3]int{{4, 4, 4}, {7, 6, 5}}
	for _, chips := range []int{1, 2} {
		mach := testMachine(4)
		mach.Chips = chips
		mq := mach
		mq.Q = q
		for _, a := range algo.Extended() {
			for _, s := range shapes {
				m, n, z := s[0], s[1], s[2]
				name := fmt.Sprintf("%s %v chips=%d", a.Name(), s, chips)
				w := algo.Workload{M: m, N: n, Z: z}
				prog, err := a.Schedule(mq, w)
				if err != nil {
					t.Fatalf("%s: schedule: %v", name, err)
				}
				if prog.DemandDriven {
					// No staging schedule: nothing flows through the
					// arenas and the IDEAL setting is unavailable.
					continue
				}
				optProg, _, err := schedule.Optimize(prog, schedule.OptimizeOptions{})
				if err != nil {
					t.Fatalf("%s: optimize: %v", name, err)
				}
				res, err := algo.RunProgram(optProg, mq, mq, w, algo.Ideal)
				if err != nil {
					t.Fatalf("%s: simulate: %v", name, err)
				}

				tr, err := matrix.NewTriple(m, n, z, q, 17)
				if err != nil {
					t.Fatal(err)
				}
				team, err := NewTeam(mach.P)
				if err != nil {
					t.Fatal(err)
				}
				ex, err := NewExecutor(team, tr, nil, ModeShared, mach.CD, mach.CS)
				if err != nil {
					team.Close()
					t.Fatal(err)
				}
				ex.SetTuning(Tuning{Optimize: true})
				runErr := ex.Run(prog)
				tra := ex.Traffic()
				var perCore []uint64
				for c := 0; c < mach.P; c++ {
					perCore = append(perCore, ex.CoreTraffic(c).StageBlocks)
				}
				team.Close()
				if runErr != nil {
					t.Fatalf("%s: execute: %v", name, runErr)
				}

				if tra.MS.StageBlocks != res.MS {
					t.Fatalf("%s: executor MS %d ≠ simulator %d", name, tra.MS.StageBlocks, res.MS)
				}
				if tra.MS.WriteBackBlocks != res.WriteBack {
					t.Fatalf("%s: executor writebacks %d ≠ simulator %d", name, tra.MS.WriteBackBlocks, res.WriteBack)
				}
				var mdSum uint64
				for c, got := range perCore {
					if got != res.MDPerCore[c] {
						t.Fatalf("%s: core %d executor MD %d ≠ simulator %d", name, c, got, res.MDPerCore[c])
					}
					mdSum += got
				}
				if tra.IC.StageBlocks != res.ICStages {
					t.Fatalf("%s: executor IC stages %d ≠ simulator %d", name, tra.IC.StageBlocks, res.ICStages)
				}
				if tra.IC.WriteBackBlocks != res.ICWriteBacks {
					t.Fatalf("%s: executor IC writebacks %d ≠ simulator %d", name, tra.IC.WriteBackBlocks, res.ICWriteBacks)
				}
			}
		}
	}
}

// FuzzOptimizedVsBaseline drives pseudo-random (but verifier-clean)
// programs from the shared fuzz decoder through the real executor twice
// — baseline and optimized — and asserts the optimizer's whole
// contract: the optimized replay succeeds whenever the baseline does,
// every operand matrix ends bit-identical, and every traffic counter is
// ≤ the baseline's. Run by the CI fuzz smoke alongside the verifier
// fuzz.
func FuzzOptimizedVsBaseline(f *testing.F) {
	// A keep-resident shared candidate: stage A00, use it in a region,
	// unstage, restage, use again, unstage.
	f.Add(uint8(0), uint8(0), uint8(8), uint8(4), []byte{
		0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 0, 0,
		0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 0, 0,
	})
	// A core refill candidate: two regions each staging A00/B00/C00,
	// computing C00 += A00·B00 and unstaging, under one driver hold.
	f.Add(uint8(0), uint8(0), uint8(8), uint8(4), []byte{
		0, 0, 0, 0, 1, 0, 0, 2, 0,
		2, 0, 0, 2, 1, 0, 2, 2, 0, 7, 0, 0, 3, 0, 0, 3, 1, 0, 3, 2, 0,
		5, 0, 0,
		2, 0, 0, 2, 1, 0, 2, 2, 0, 7, 0, 0, 3, 0, 0, 3, 1, 0, 3, 2, 0,
		1, 0, 0, 1, 1, 0, 1, 2, 0,
	})
	// Multi-core, multi-chip stream.
	f.Add(uint8(1), uint8(1), uint8(7), uint8(3), []byte{
		0, 0, 0, 0, 3, 1, 2, 0, 0, 5, 0, 0, 3, 0, 0, 1, 0, 0,
		0, 0, 0, 2, 0, 0, 3, 0, 0, 1, 0, 0, 1, 3, 1,
	})
	f.Fuzz(func(t *testing.T, cores, chips, cs, cd uint8, data []byte) {
		prog, res := verify.FuzzProgram(cores, chips, cs, cd, data)
		if len(verify.Program(prog, res)) != 0 {
			return // only verifier-clean programs are replayable
		}
		const q = 3
		// Operands span the decoder's full line space: three matrices of
		// 5×5 ragged blocks. A block-diagonal boost keeps FactorTile
		// pivots away from zero so most streams stay finite (bitEqual
		// tolerates the rest).
		newOps := func() (*matrix.Operands, []*matrix.Dense) {
			ids := []matrix.MatrixID{matrix.MatA, matrix.MatB, matrix.MatC}
			bs := make([]*matrix.Blocked, len(ids))
			ds := make([]*matrix.Dense, len(ids))
			for i, id := range ids {
				d := matrix.Random(5*q-1, 5*q-1, 97+uint64(i))
				for r := 0; r < d.Rows(); r++ {
					for c := 0; c < d.Cols(); c++ {
						if r%q == c%q {
							d.Set(r, c, d.At(r, c)+8)
						}
					}
				}
				b, err := matrix.NewBlocked(id, d, q)
				if err != nil {
					t.Fatal(err)
				}
				bs[i], ds[i] = b, d
			}
			ops, err := matrix.NewOperands(bs...)
			if err != nil {
				t.Fatal(err)
			}
			return ops, ds
		}
		run := func(mode Mode, optimize bool) (Traffic, []*matrix.Dense, bool) {
			ops, ds := newOps()
			team, err := NewTeam(prog.Cores)
			if err != nil {
				t.Fatal(err)
			}
			defer team.Close()
			ex, err := NewExecutorOperands(team, ops, nil, mode, res.CoreBlocks, res.SharedBlocks)
			if err != nil {
				return Traffic{}, nil, false
			}
			ex.SetTuning(Tuning{Optimize: optimize})
			if err := ex.Run(prog); err != nil {
				return Traffic{}, nil, false
			}
			return ex.Traffic(), ds, true
		}
		for _, mode := range physicalModes() {
			baseTra, baseDs, ok := run(mode, false)
			if !ok {
				continue // this stream is not replayable in this mode
			}
			optTra, optDs, ok := run(mode, true)
			if !ok {
				t.Fatalf("mode %v: optimized replay failed though baseline ran", mode)
			}
			for i := range baseDs {
				if !bitEqual(baseDs[i], optDs[i]) {
					t.Fatalf("mode %v: operand %d differs after optimized replay", mode, i)
				}
			}
			if !trafficLEQ(optTra.MS, baseTra.MS) || !trafficLEQ(optTra.MD, baseTra.MD) || !trafficLEQ(optTra.IC, baseTra.IC) {
				t.Fatalf("mode %v: optimized traffic %+v exceeds baseline %+v", mode, optTra, baseTra)
			}
		}
	})
}
