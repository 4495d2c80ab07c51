package parallel

import (
	"repro/internal/algo"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Multiply executes algorithm name (an algo display name, resolved
// through the registry) for real on the triple's data: the one-shot
// entry point of the product. It shapes the loop nest from the
// machine's core count and cache-derived parameters exactly as the
// simulator does — both consume the same schedule.Program — and runs
// it with one worker goroutine per core of mach in the given mode,
// staging into per-core arenas of mach.CD tiles (and, in the
// shared-level modes, a shared arena of mach.CS tiles). The tuning
// cannot change a result, only traffic and timing. An optional probe
// observes the per-core and shared access streams, identical to those
// a simulator probe sees for the same declared machine. To replay one
// program repeatedly, or to drive the failure path, use NewExecutor
// and Run.
func Multiply(name string, t *matrix.Triple, mach machine.Machine, mode Mode, tun Tuning, probe *schedule.Probe) error {
	a, err := algo.ByName(name)
	if err != nil {
		return err
	}
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
