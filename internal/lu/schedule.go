package lu

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// This file is the schedule emitter of the factorisation: the one loop
// nest, written once, that both backends consume. Program compiles the
// right-looking blocked LU of an nb×nb block matrix into a
// schedule.Program over the typed kernel op set — FactorTile on the
// pivot tile, the two triangular solves on the panels, MulSub on the
// trailing submatrix — with the staging discipline the declared machine
// affords: panels and trailing tiles stream through the shared cache in
// strips sized to half of CS (leaving the other half free so the
// pipelined executor can double-buffer consecutive strips), and each
// core's working set never exceeds the 3-block minimum, exactly like
// Algorithm 1's distributed footprint.

// tile names block (i, j) of the matrix being factored. The
// factorisation has a single operand; by convention it occupies the A
// slot ("A = L·U"), so its lines never collide with the product's B/C
// naming if a future schedule composes both.
func tile(i, j int) schedule.Line { return schedule.LineA(i, j) }

// trailingEdge returns the largest strip edge w ≥ 1 with w² + 2w ≤ cs/2:
// a w×w strip of trailing tiles plus the w-deep L and U panel fragments
// it consumes must fit *half* the shared cache, so that the other half
// can double-buffer the next strip. A maximal strip (w² + 2w ≤ cs) would
// minimise the panel re-staging term of MS, but it leaves the pipelined
// executor no spare slots: every strip's staging would serialise behind
// the team barrier. Halving the strip trades a modest MS increase (the
// L and U panels re-stage once per opposing strip, a lower-order term
// against the once-per-step trailing tiles) for a schedule whose
// between-strip gaps fully overlap with compute — the next strip
// prefetches while the current one updates, and the current one's
// write-backs retire while the next one runs.
func trailingEdge(cs int) int {
	w := 1
	for (w+1)*(w+1)+2*(w+1) <= cs/2 {
		w++
	}
	return w
}

// Program emits the right-looking blocked LU factorisation of an nb×nb
// block matrix for the declared machine: one parallel region factors the
// pivot tile, strips of panel tiles are solved against it, and the
// trailing submatrix is updated in w×w strips of MulSub kernels, cores
// owning disjoint trailing blocks. Every step leaves the shared level
// and the core arenas empty, so the working set is per-step, not
// per-matrix: SharedPeak ≤ CS and CorePeak = 3 ≤ CD for any nb.
func Program(declared machine.Machine, nb int) (*schedule.Program, error) {
	if err := declared.Validate(); err != nil {
		return nil, err
	}
	if nb <= 0 {
		return nil, fmt.Errorf("lu: matrix order %d blocks must be positive", nb)
	}
	p := declared.P
	w := trailingEdge(declared.CS)
	// Panel strip length: the diagonal tile shares the level, and — as
	// with the trailing strips — only half the remaining capacity is
	// claimed so consecutive strips double-buffer under the pipelined
	// executor.
	g := (declared.CS - 1) / 2
	if g < 1 {
		g = 1
	}

	// panelLine maps strip index s of step k to its tile: the t
	// column-panel tiles first, then the t row-panel tiles.
	panelLine := func(k, s, t int) schedule.Line {
		if s < t {
			return tile(k+1+s, k)
		}
		return tile(k, k+1+s-t)
	}

	body := func(b schedule.Backend) {
		for k := 0; k < nb; k++ {
			diag := tile(k, k)
			t := nb - k - 1 // trailing edge of this step, in tiles

			// Factor the pivot tile on its owner core; the factored tile
			// merges upward so the panel solves read L and U.
			b.StageShared(diag)
			owner := k % p
			b.Parallel(func(c int, ops schedule.CoreSink) {
				if c != owner {
					return
				}
				ops.Stage(diag)
				ops.Apply(schedule.FactorTile, diag)
				ops.Unstage(diag)
			})

			// Panel solves: 2t tiles (column panel, then row panel)
			// streamed through the shared cache in strips of ≤ g tiles,
			// cyclically assigned; every working core holds the diagonal
			// tile plus one panel tile (footprint 2).
			for s0 := 0; s0 < 2*t; s0 += g {
				slen := min(g, 2*t-s0)
				for s := s0; s < s0+slen; s++ {
					b.StageShared(panelLine(k, s, t))
				}
				b.Parallel(func(c int, ops schedule.CoreSink) {
					if c >= slen {
						return
					}
					ops.Stage(diag)
					for s := s0 + c; s < s0+slen; s += p {
						l := panelLine(k, s, t)
						ops.Stage(l)
						if s < t {
							ops.Apply(schedule.TrsmUpperRight, l, diag)
						} else {
							ops.Apply(schedule.TrsmLowerLeftUnit, l, diag)
						}
						ops.Unstage(l)
					}
					ops.Unstage(diag)
				})
				for s := s0; s < s0+slen; s++ {
					b.UnstageShared(panelLine(k, s, t))
				}
			}
			b.UnstageShared(diag)

			// Trailing update in w×w strips: a strip of U panel tiles
			// stays shared-resident while row strips of L tiles and
			// trailing tiles stream past it; each trailing tile (i, j) is
			// owned by one core, which stages L[i,k], U[k,j] and the tile
			// itself (footprint 3), applies MulSub and releases all three.
			for j0 := k + 1; j0 < nb; j0 += w {
				jlen := min(w, nb-j0)
				for j := j0; j < j0+jlen; j++ {
					b.StageShared(tile(k, j))
				}
				for i0 := k + 1; i0 < nb; i0 += w {
					ilen := min(w, nb-i0)
					for i := i0; i < i0+ilen; i++ {
						b.StageShared(tile(i, k))
					}
					for i := i0; i < i0+ilen; i++ {
						for j := j0; j < j0+jlen; j++ {
							b.StageShared(tile(i, j))
						}
					}
					b.Parallel(func(c int, ops schedule.CoreSink) {
						for s := c; s < ilen*jlen; s += p {
							i := i0 + s/jlen
							j := j0 + s%jlen
							li, uj, tij := tile(i, k), tile(k, j), tile(i, j)
							ops.Stage(li)
							ops.Stage(uj)
							ops.Stage(tij)
							ops.Apply(schedule.MulSub, tij, li, uj)
							ops.Unstage(tij)
							ops.Unstage(uj)
							ops.Unstage(li)
						}
					})
					for i := i0; i < i0+ilen; i++ {
						for j := j0; j < j0+jlen; j++ {
							b.UnstageShared(tile(i, j))
						}
					}
					for i := i0; i < i0+ilen; i++ {
						b.UnstageShared(tile(i, k))
					}
				}
				for j := j0; j < j0+jlen; j++ {
					b.UnstageShared(tile(k, j))
				}
			}
		}
	}
	return &schedule.Program{
		Algorithm: "LU",
		Cores:     p,
		Params:    schedule.Params{Lambda: w},
		Resources: schedule.Resources{
			SharedBlocks: declared.CS,
			CoreBlocks:   declared.CD,
			Chips:        declared.ChipCount(),
		},
		Body: body,
	}, nil
}

// MachineFor models the execution host for p cores and tile size q: the
// paper's 8MB-shared/256KB-distributed quad-core generalised to
// arbitrary p and q, with the capacities clamped to stay a valid
// hierarchy. Both workloads' CLIs run on it. Setting Chips to any
// divisor of p keeps it valid: the CS clamp to p·CD already dominates
// the per-chip floor (p/chips)·CD.
func MachineFor(p, q int) machine.Machine {
	m := machine.Machine{
		P:      p,
		CS:     machine.BlocksFromBytes(8<<20, q, 1.0),
		CD:     machine.BlocksFromBytes(256<<10, q, 2.0/3.0),
		SigmaS: machine.DefaultSigmaS,
		SigmaD: machine.DefaultSigmaD,
		Q:      q,
	}
	if m.CD < 3 {
		m.CD = 3
	}
	if m.CS < m.P*m.CD {
		m.CS = m.P * m.CD
	}
	return m
}

// Stats carries the measured execution profile of one schedule-driven
// factorisation: the per-level physical traffic plus the driving
// goroutine's critical-path split (see parallel.Executor.StageWait).
type Stats struct {
	Traffic   parallel.Traffic
	StageWait time.Duration
	Compute   time.Duration
}

// FactorParallelTuned factors a in place through the schedule IR, the
// one-shot entry point of the factorisation: it compiles the
// blocked-LU Program for mach, binds the matrix as the executor's
// single operand, applies the tuning (pipeline lookahead, schedule
// optimizer switch) and runs it on the team in the given
// mode. It returns the measured profile: the executor's per-level
// physical traffic (zero in ModeView, the memory↔core stream as MD in
// ModePacked, both streams in the shared-level modes) and the
// stage-wait versus compute split. mach.P must equal the team size;
// MachineFor(team.Size(), q) is the default host model. The factors
// are bitwise equal to the sequential Factor's in every mode and at
// every tuning; only the profile changes.
//
// The team keeps the Run of the last shape it factored (Team.Keep): the
// program and its executor, which holds the compiled trace, optimizer
// ledger, phase plan, chip topology and arenas. A later call with the
// same n, q, mode, machine and tuning rebinds that executor to its own
// matrix and replays, so it compiles and allocates nothing; only a
// team's first call of a shape pays the compile. A call with another
// shape replaces the kept Run, a failed call drops it (the next call
// compiles afresh), and Team.Close releases it. A call takes the Run
// off the team while it runs, so concurrent calls on one team never
// share an executor, and the kept Run holds no caller's matrix. Every
// call checks its arguments as NewRun does.
func FactorParallelTuned(a *matrix.Dense, q int, team *parallel.Team, mode parallel.Mode, mach machine.Machine, tun parallel.Tuning) (Stats, error) {
	operands, err := bind(a, q, team, mach)
	if err != nil {
		return Stats{}, err
	}
	key := runKey{n: a.Rows(), q: q, mode: mode, mach: mach, tun: tun}
	k, _ := team.Take().(*keptRun)
	if k != nil && k.key == key {
		err = k.run.Ex.Rebind(operands)
	} else {
		k = &keptRun{key: key}
		k.run, err = NewRun(a, q, team, mode, mach, tun)
	}
	if err != nil {
		return Stats{}, err
	}
	if err := k.run.Ex.Run(k.run.Prog); err != nil {
		return Stats{}, err
	}
	st := k.run.Stats()
	// Unbinding a clean executor cannot fail.
	_ = k.run.Ex.Rebind(nil)
	team.Keep(k)
	return st, nil
}

// runKey is everything a factorisation's compiled Run depends on
// besides the team: two calls with equal keys on one team replay the
// same program.
type runKey struct {
	n, q int
	mode parallel.Mode
	mach machine.Machine
	tun  parallel.Tuning
}

// keptRun is the Run FactorParallelTuned keeps on a team, with its key.
type keptRun struct {
	key runKey
	run *Run
}

// Run bundles a compiled blocked-LU program with the executor that will
// replay it — the exploded form of FactorParallelTuned for callers that
// need the executor's failure-path control surface before and after the
// replay: installing a fault injector or the integrity tripwire,
// running under a context (Ex.RunContext), inspecting a *parallel.
// RunError's provenance, and Resetting the executor after a failure.
// cmd/lufact's chaos path is the canonical consumer. A Run that NewRun
// returns stays its caller's: the team never keeps it.
type Run struct {
	Prog *schedule.Program
	Ex   *parallel.Executor
}

// NewRun builds the blocked-LU program for a and binds a fresh executor
// to it, performing all of FactorParallelTuned's validation but
// stopping short of the replay; the executor compiles the program on
// its first Run. The caller owns the run: typically configure Ex, then
// Ex.Run(Prog) (or Ex.RunContext), and read Stats.
func NewRun(a *matrix.Dense, q int, team *parallel.Team, mode parallel.Mode, mach machine.Machine, tun parallel.Tuning) (*Run, error) {
	operands, err := bind(a, q, team, mach)
	if err != nil {
		return nil, err
	}
	prog, err := Program(mach, (a.Rows()+q-1)/q)
	if err != nil {
		return nil, err
	}
	ex, err := parallel.NewExecutorOperands(team, operands, nil, mode, mach.CD, mach.CS)
	if err != nil {
		return nil, err
	}
	ex.SetTuning(tun)
	return &Run{Prog: prog, Ex: ex}, nil
}

// bind checks a factorisation's arguments — a square a, a positive q, a
// team whose size is mach.P — and binds a as its single operand.
func bind(a *matrix.Dense, q int, team *parallel.Team, mach machine.Machine) (*matrix.Operands, error) {
	if err := check(a, q); err != nil {
		return nil, err
	}
	if team == nil {
		return nil, errors.New("lu: nil team")
	}
	if mach.P != team.Size() {
		return nil, fmt.Errorf("lu: machine declares %d cores, team has %d", mach.P, team.Size())
	}
	blocked, err := matrix.NewBlocked(matrix.MatA, a, q)
	if err != nil {
		return nil, err
	}
	return matrix.NewOperands(blocked)
}

// Stats reads the executor's measured profile of the most recent replay.
func (r *Run) Stats() Stats {
	return Stats{Traffic: r.Ex.Traffic(), StageWait: r.Ex.StageWait(), Compute: r.Ex.ComputeTime()}
}

// SingularStep inspects an error from FactorParallelTuned or a Run's
// replay: if the factorisation died on a vanishing pivot, it returns
// the block step k (the diagonal tile A[k,k] whose FactorTile failed)
// and true. The step comes from the RunError's provenance — the failing
// kernel's line — so it names the exact pivot tile, not just "somewhere
// mid-run".
func SingularStep(err error) (step int, ok bool) {
	if !errors.Is(err, ErrSingular) {
		return 0, false
	}
	var re *parallel.RunError
	if errors.As(err, &re) && re.HasOp && re.Kernel == schedule.FactorTile {
		return re.Line.Row, true
	}
	return 0, false
}
