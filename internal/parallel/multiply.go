package parallel

import (
	"repro/internal/algo"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Multiply executes algorithm name (an algo display name, resolved
// through the registry) for real on the triple's data, using the
// machine's core count and cache-derived parameters to shape the loop
// nest exactly as the simulator does — both consume the same
// schedule.Program. Staging is physical: blocks are packed into
// per-core arenas sized from the machine's distributed-cache capacity.
func Multiply(name string, t *matrix.Triple, mach machine.Machine) error {
	return MultiplyMode(name, t, mach, ModePacked)
}

// MultiplyMode is Multiply with an explicit executor mode, so callers
// (benchmarks, examples) can compare packed staging against the strided
// ModeView baseline, or run the full two-level hierarchy (ModeShared)
// where the shared arena sits between memory and the core arenas.
func MultiplyMode(name string, t *matrix.Triple, mach machine.Machine, mode Mode) error {
	a, err := algo.ByName(name)
	if err != nil {
		return err
	}
	return ExecuteMode(a, t, mach, nil, mode)
}

// Execute runs algorithm a's schedule on the triple with one worker
// goroutine per core of mach, staging blocks into per-core packed
// arenas of mach.CD tiles (ModeShared additionally routes them through
// a Team-wide shared arena of mach.CS tiles). An optional probe
// observes the access
// streams (per-core and shared), which are identical to the streams a
// simulator probe sees for the same declared machine — the schedule IR
// is the single source for both backends.
func Execute(a algo.Algorithm, t *matrix.Triple, mach machine.Machine, probe *schedule.Probe) error {
	return ExecuteMode(a, t, mach, probe, ModePacked)
}

// ExecuteMode is Execute with an explicit executor mode.
func ExecuteMode(a algo.Algorithm, t *matrix.Triple, mach machine.Machine, probe *schedule.Probe, mode Mode) error {
	return ExecuteTuned(a, t, mach, probe, mode, DefaultTuning)
}

// MultiplyTuned is MultiplyMode with an explicit tuning: the schedule
// optimizer switch and (in ModeSharedPipelined) the pipeline lookahead
// depth. The zero Tuning reproduces MultiplyMode exactly.
func MultiplyTuned(name string, t *matrix.Triple, mach machine.Machine, mode Mode, tun Tuning) error {
	a, err := algo.ByName(name)
	if err != nil {
		return err
	}
	return ExecuteTuned(a, t, mach, nil, mode, tun)
}

// ExecuteTuned is ExecuteMode with an explicit tuning, applied to the
// executor before the program runs. Tuning cannot change a result —
// the optimizer keeps results bitwise identical and the pipeline plan
// is re-verified at every lookahead — only traffic and timing.
func ExecuteTuned(a algo.Algorithm, t *matrix.Triple, mach machine.Machine, probe *schedule.Probe, mode Mode, tun Tuning) error {
	if err := t.Validate(); err != nil {
		return err
	}
	if err := mach.Validate(); err != nil {
		return err
	}
	m, n, z := t.Dims()
	prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
	if err != nil {
		return err
	}
	team, err := NewTeam(mach.P)
	if err != nil {
		return err
	}
	defer team.Close()
	ex, err := NewExecutor(team, t, probe, mode, mach.CD, mach.CS)
	if err != nil {
		return err
	}
	ex.SetTuning(tun)
	return ex.Run(prog)
}

// Reference computes the expected C for a triple using the sequential
// blocked kernel, returning a fresh matrix (the triple is untouched).
func Reference(t *matrix.Triple) (*matrix.Dense, error) {
	want := matrix.New(t.C.Dense().Rows(), t.C.Dense().Cols())
	if err := matrix.MulBlocked(want, t.A.Dense(), t.B.Dense(), t.A.Q); err != nil {
		return nil, err
	}
	return want, nil
}

// Verify recomputes the product sequentially and reports the max
// absolute deviation of the triple's C from it.
func Verify(t *matrix.Triple) (float64, error) {
	want, err := Reference(t)
	if err != nil {
		return 0, err
	}
	return t.C.Dense().MaxAbsDiff(want), nil
}
