package parallel

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/matrix"
)

// tunedRun executes one algorithm on a fresh deterministic triple with
// the given tuning and returns the resulting C plus the run's physical
// traffic.
func tunedRun(t *testing.T, a algo.Algorithm, dims [3]int, q int, mode Mode, tun Tuning) (*matrix.Dense, Traffic) {
	t.Helper()
	mach := testMachine(4)
	mach.Q = q
	tr, err := matrix.NewTripleDims(dims[0], dims[1], dims[2], q, 97)
	if err != nil {
		t.Fatal(err)
	}
	m, n, z := tr.Dims()
	prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
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
	ex.SetTuning(tun)
	if err := ex.Run(prog); err != nil {
		t.Fatalf("%s mode %v tuning %+v: %v", a.Name(), mode, tun, err)
	}
	return tr.C.Dense().Clone(), ex.Traffic()
}

// TestKernelDispatchLookaheadEquivalence runs ModeSharedPipelined at
// lookahead depths 1–3 and pins every run bitwise and traffic-equal to
// the serial ModeShared execution: deeper prefetching reorders staging
// against compute but must move the same blocks and compute the same
// numbers.
func TestKernelDispatchLookaheadEquivalence(t *testing.T) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	dims := [3]int{13, 7, 11}
	const q = 4
	base, baseTraffic := tunedRun(t, a, dims, q, ModeShared, DefaultTuning)
	for k := 1; k <= 3; k++ {
		got, traffic := tunedRun(t, a, dims, q, ModeSharedPipelined, Tuning{Lookahead: k})
		if d := base.MaxAbsDiff(got); d != 0 {
			t.Errorf("lookahead %d: pipelined result differs from ModeShared by %g", k, d)
		}
		if traffic != baseTraffic {
			t.Errorf("lookahead %d: traffic %+v, ModeShared moved %+v", k, traffic, baseTraffic)
		}
	}
}

// TestKernelDispatchTuningResets verifies SetTuning invalidates the
// cached plan: one executor re-tuned between runs must keep producing
// the untuned result (Run re-validates and re-plans at the new depth).
func TestKernelDispatchTuningResets(t *testing.T) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	dims := [3]int{13, 7, 11}
	const q = 4
	mach := testMachine(4)
	mach.Q = q
	want, _ := tunedRun(t, a, dims, q, ModeSharedPipelined, DefaultTuning)

	tr, err := matrix.NewTripleDims(dims[0], dims[1], dims[2], q, 97)
	if err != nil {
		t.Fatal(err)
	}
	m, n, z := tr.Dims()
	prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
	if err != nil {
		t.Fatal(err)
	}
	team, err := NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, ModeSharedPipelined, mach.CD, mach.CS)
	if err != nil {
		t.Fatal(err)
	}
	for i, tun := range []Tuning{
		{},
		{Lookahead: 2},
		{Lookahead: 3},
	} {
		tr.C.Dense().Zero()
		ex.SetTuning(tun)
		if got := ex.Tuning(); got != tun {
			t.Fatalf("run %d: Tuning() = %+v after SetTuning(%+v)", i, got, tun)
		}
		if err := ex.Run(prog); err != nil {
			t.Fatalf("run %d (%+v): %v", i, tun, err)
		}
		if d := want.MaxAbsDiff(tr.C.Dense()); d != 0 {
			t.Fatalf("run %d (%+v): result drifted from untuned by %g", i, tun, d)
		}
	}
}
