package lu

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/algo"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// luTestMachine is a deliberately tight hierarchy: CD is the schedule's
// exact 3-block footprint and CS is small enough that the panel and
// trailing strips actually split, so the tests exercise the striping
// logic, not just the one-strip fast path.
func luTestMachine(p, q int) machine.Machine {
	return machine.Machine{P: p, CS: 3 * p, CD: 3, SigmaS: 1, SigmaD: 4, Q: q}
}

// program compiles the LU schedule for an n×n matrix with tile size q.
func program(t *testing.T, mach machine.Machine, n, q int) *schedule.Program {
	t.Helper()
	nb := (n + q - 1) / q
	prog, err := Program(mach, nb)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// runExecutor factors a copy of orig through the executor in the given
// mode, recording the access streams, and returns the factored matrix.
func runExecutor(t *testing.T, orig *matrix.Dense, q int, mach machine.Machine, mode parallel.Mode, rec *schedule.Recorder) *matrix.Dense {
	t.Helper()
	a := orig.Clone()
	blocked, err := matrix.NewBlocked(matrix.MatA, a, q)
	if err != nil {
		t.Fatal(err)
	}
	operands, err := matrix.NewOperands(blocked)
	if err != nil {
		t.Fatal(err)
	}
	prog := program(t, mach, orig.Rows(), q)
	team, err := parallel.NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	var probe *schedule.Probe
	if rec != nil {
		probe = rec.Probe()
	}
	ex, err := parallel.NewExecutorOperands(team, operands, probe, mode, mach.CD, mach.CS)
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Run(prog); err != nil {
		t.Fatalf("execute LU (%v): %v", mode, err)
	}
	return a
}

// The single-source invariant, extended to the factorisation: the real
// executor's per-core and shared access streams for the LU program are
// identical, operation for operation, to the streams a simulator probe
// observes — under IDEAL and LRU, in every physical staging mode
// including the pipelined one — and the factored matrix is bitwise
// equal to the sequential Factor. Shapes include ragged n mod q ≠ 0
// edges on both backends.
func TestLUSimExecStreamEquivalence(t *testing.T) {
	shapes := []struct{ n, q int }{
		{16, 4},  // aligned, several steps
		{13, 4},  // ragged edge tile
		{9, 3},   // aligned, 3 steps
		{23, 5},  // ragged, trailing strips split
		{4, 8},   // single tile smaller than q
		{17, 16}, // two steps, ragged second
	}
	for _, s := range shapes {
		mach := luTestMachine(4, s.q)
		orig := RandomDominant(s.n, uint64(s.n*31+s.q))
		want := orig.Clone()
		if err := Factor(want, s.q); err != nil {
			t.Fatal(err)
		}
		for _, mode := range []parallel.Mode{parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined} {
			execRec := schedule.NewRecorder(mach.P)
			got := runExecutor(t, orig, s.q, mach, mode, execRec)
			if !got.Equal(want) {
				t.Fatalf("n=%d q=%d %v: executed LU deviates from sequential Factor by %g",
					s.n, s.q, mode, got.MaxAbsDiff(want))
			}
			nb := (s.n + s.q - 1) / s.q
			prog := program(t, mach, s.n, s.q)
			for _, setting := range []algo.Setting{algo.Ideal, algo.LRU} {
				simRec := schedule.NewRecorder(mach.P)
				w := algo.Workload{M: nb, N: nb, Z: nb, Probe: simRec.Probe()}
				if _, err := algo.RunProgram(prog, mach, mach, w, setting); err != nil {
					t.Fatalf("n=%d q=%d: simulate LU (%v): %v", s.n, s.q, setting, err)
				}
				if d := simRec.Diff(execRec); d != "" {
					t.Fatalf("n=%d q=%d %v: simulator (%v) and executor streams diverge: %s",
						s.n, s.q, mode, setting, d)
				}
			}
		}
	}
}

// The LU program's physical traffic must equal the IDEAL simulator's
// miss counts in the shared-level modes — MS block for block, MD core
// for core, with the pipelined stager changing the timing but never the
// counts — and collapse to a distributed-only stream in ModePacked,
// exactly as the product schedules do.
func TestLUSharedTrafficMatchesSimulator(t *testing.T) {
	for _, s := range []struct{ n, q int }{{16, 4}, {13, 4}} {
		mach := luTestMachine(4, s.q)
		nb := (s.n + s.q - 1) / s.q
		prog := program(t, mach, s.n, s.q)
		res, err := algo.RunProgram(prog, mach, mach, algo.Workload{M: nb, N: nb, Z: nb}, algo.Ideal)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []parallel.Mode{parallel.ModeShared, parallel.ModeSharedPipelined} {
			t.Run(fmt.Sprintf("%dx%d/q%d/%v", s.n, s.n, s.q, mode), func(t *testing.T) {
				orig := RandomDominant(s.n, 7)
				a := orig.Clone()
				blocked, err := matrix.NewBlocked(matrix.MatA, a, s.q)
				if err != nil {
					t.Fatal(err)
				}
				operands, err := matrix.NewOperands(blocked)
				if err != nil {
					t.Fatal(err)
				}
				team, err := parallel.NewTeam(mach.P)
				if err != nil {
					t.Fatal(err)
				}
				defer team.Close()
				ex, err := parallel.NewExecutorOperands(team, operands, nil, mode, mach.CD, mach.CS)
				if err != nil {
					t.Fatal(err)
				}
				if err := ex.Run(prog); err != nil {
					t.Fatal(err)
				}
				tra := ex.Traffic()
				if tra.MS.StageBlocks != res.MS {
					t.Fatalf("executor staged %d shared blocks, simulator counts MS=%d", tra.MS.StageBlocks, res.MS)
				}
				if tra.MS.WriteBackBlocks != res.WriteBack {
					t.Fatalf("executor wrote back %d blocks, simulator counts %d", tra.MS.WriteBackBlocks, res.WriteBack)
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
			})
		}
	}
}

// Every trailing tile must be written by exactly one core per step: the
// recorded write stream of the LU program covers each block the right
// number of times, and writes go only to the factored operand.
func TestLUStreamWritesFactoredOperandOnly(t *testing.T) {
	const n, q = 16, 4
	mach := luTestMachine(4, q)
	rec := schedule.NewRecorder(mach.P)
	runExecutor(t, RandomDominant(n, 3), q, mach, parallel.ModePacked, rec)
	writes := 0
	for _, stream := range rec.Cores {
		for _, acc := range stream {
			if acc.Write {
				if acc.Line.Matrix != matrix.MatA {
					t.Fatalf("write to %v; LU touches only its single operand", acc.Line)
				}
				writes++
			}
		}
	}
	// Right-looking LU applies one kernel per tile per step it is
	// active: Σ_k (1 pivot + 2t panels + t² trailing), t = nb−1−k.
	nb := n / q
	want := 0
	for k := 0; k < nb; k++ {
		tt := nb - 1 - k
		want += 1 + 2*tt + tt*tt
	}
	if writes != want {
		t.Fatalf("stream carries %d kernel writes, want %d", writes, want)
	}
}

// The schedule's working set is per-step by construction: three blocks
// per core and at most CS shared blocks, for every machine it compiles
// on — the claim Validate checks before the executor commits arenas.
func TestLUProgramWorkingSetFits(t *testing.T) {
	for _, p := range []int{1, 2, 4, 7} {
		for _, nb := range []int{1, 2, 5, 9} {
			mach := luTestMachine(p, 4)
			prog, err := Program(mach, nb)
			if err != nil {
				t.Fatal(err)
			}
			ws, err := schedule.Measure(prog)
			if err != nil {
				t.Fatal(err)
			}
			if err := ws.Fits(prog.Resources); err != nil {
				t.Fatalf("p=%d nb=%d: %v", p, nb, err)
			}
			if ws.CorePeak > 3 {
				t.Fatalf("p=%d nb=%d: core working set %d blocks, schedule promises ≤ 3", p, nb, ws.CorePeak)
			}
			if ws.SharedPeak > mach.CS {
				t.Fatalf("p=%d nb=%d: shared working set %d blocks exceeds CS=%d", p, nb, ws.SharedPeak, mach.CS)
			}
			if ws.Stages != ws.Unstages || ws.SharedStages != ws.SharedUnstages {
				t.Fatalf("p=%d nb=%d: unbalanced staging (%d/%d core, %d/%d shared)",
					p, nb, ws.Stages, ws.Unstages, ws.SharedStages, ws.SharedUnstages)
			}
		}
	}
}

// A singular pivot must surface as ErrSingular through the executor
// path, exactly as it does from the sequential Factor.
func TestLUSingularPropagatesThroughExecutor(t *testing.T) {
	team, err := parallel.NewTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	if _, err := FactorParallelTuned(matrix.New(8, 8), 4, team, parallel.ModePacked, MachineFor(team.Size(), 4), parallel.DefaultTuning); !errors.Is(err, ErrSingular) {
		t.Fatalf("zero matrix through the executor: want ErrSingular, got %v", err)
	}
}

func TestLUProgramRejectsBadInput(t *testing.T) {
	mach := luTestMachine(2, 4)
	if _, err := Program(mach, 0); err == nil {
		t.Fatal("nb=0 must fail")
	}
	bad := mach
	bad.P = 0
	if _, err := Program(bad, 4); err == nil {
		t.Fatal("invalid machine must fail")
	}
	team, err := parallel.NewTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	wrong := luTestMachine(3, 4) // machine/team core mismatch
	if _, err := FactorParallelTuned(RandomDominant(8, 1), 4, team, parallel.ModePacked, wrong, parallel.DefaultTuning); err == nil {
		t.Fatal("machine/team core mismatch must fail")
	}
}

// TestKernelDispatchLUTunedMatchesSequential sweeps the executor's
// tuning surface over the factorisation: every staging mode, and (in
// the pipelined mode) both lookahead values that select depth 1, must
// produce a factored matrix bitwise identical to the sequential Factor
// — on a tight hierarchy whose strips actually split and on the
// capacious benchmark machine. Tuning is a pure timing knob; this is
// the proof.
func TestKernelDispatchLUTunedMatchesSequential(t *testing.T) {
	const n, q = 22, 4 // ragged: the last block row/column is 2 wide
	orig := RandomDominant(n, 7)
	want := orig.Clone()
	if err := Factor(want, q); err != nil {
		t.Fatal(err)
	}
	team, err := parallel.NewTeam(2)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	for _, mach := range []machine.Machine{luTestMachine(2, q), MachineFor(2, q)} {
		for _, mode := range []parallel.Mode{parallel.ModePacked, parallel.ModeShared, parallel.ModeSharedPipelined} {
			depths := []int{0}
			if mode == parallel.ModeSharedPipelined {
				depths = []int{0, 1}
			}
			for _, k := range depths {
				a := orig.Clone()
				tun := parallel.Tuning{Lookahead: k}
				if _, err := FactorParallelTuned(a, q, team, mode, mach, tun); err != nil {
					t.Fatalf("CS=%d mode %v lookahead %d: %v", mach.CS, mode, k, err)
				}
				if d := want.MaxAbsDiff(a); d != 0 {
					t.Errorf("CS=%d mode %v lookahead %d: differs from sequential Factor by %g",
						mach.CS, mode, k, d)
				}
			}
		}
	}
}
