package parallel

import (
	"fmt"
	"reflect"
	"strings"
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
// lookahead depth 1 and pins the run bitwise and traffic-equal to the
// serial ModeShared execution: prefetching reorders staging against
// compute but must move the same blocks and compute the same numbers.
func TestKernelDispatchLookaheadEquivalence(t *testing.T) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	dims := [3]int{13, 7, 11}
	const q = 4
	base, baseTraffic := tunedRun(t, a, dims, q, ModeShared, DefaultTuning)
	got, traffic := tunedRun(t, a, dims, q, ModeSharedPipelined, Tuning{Lookahead: 1})
	if d := base.MaxAbsDiff(got); d != 0 {
		t.Errorf("pipelined result differs from ModeShared by %g", d)
	}
	if traffic != baseTraffic {
		t.Errorf("traffic %+v, ModeShared moved %+v", traffic, baseTraffic)
	}
}

// TestKernelDispatchTuningResets verifies SetTuning invalidates the
// compiled program: one executor re-tuned between runs must keep
// producing the untuned result (Run re-optimizes, re-validates and
// re-plans under the new settings).
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
		{Optimize: true},
		{Optimize: false},
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

// TestKernelDispatchLookaheadDepthOneOnly pins what Tuning.Lookahead
// means in ModeSharedPipelined: 0 and 1 both select the depth-1 double
// buffer, with identical plans and bitwise-identical results, and any
// other value is a pre-flight rejection that names it — the executor
// stays clean and moves nothing.
func TestKernelDispatchLookaheadDepthOneOnly(t *testing.T) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	const q = 4
	mach := testMachine(4)
	mach.Q = q
	team, err := NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	run := func(lookahead int) (*Executor, *matrix.Dense, error) {
		tr, err := matrix.NewTripleDims(13, 7, 11, q, 97)
		if err != nil {
			t.Fatal(err)
		}
		m, n, z := tr.Dims()
		prog, err := a.Schedule(mach, algo.Workload{M: m, N: n, Z: z})
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(team, tr, nil, ModeSharedPipelined, mach.CD, mach.CS)
		if err != nil {
			t.Fatal(err)
		}
		ex.SetTuning(Tuning{Lookahead: lookahead})
		return ex, tr.C.Dense(), ex.Run(prog)
	}

	ex0, c0, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	ex1, c1, err := run(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ex0.Plan(), ex1.Plan()) {
		t.Error("Lookahead 0 and 1 planned differently")
	}
	if ex1.Plan().Depth != 1 {
		t.Errorf("Lookahead 1 planned depth %d", ex1.Plan().Depth)
	}
	if d := c0.MaxAbsDiff(c1); d != 0 {
		t.Errorf("Lookahead 0 and 1 results differ by %g", d)
	}

	for _, k := range []int{2, -1} {
		ex, _, err := run(k)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("Lookahead %d", k)) {
			t.Errorf("Lookahead %d: want a pre-flight error naming it, got %v", k, err)
		}
		if ex.Err() != nil {
			t.Errorf("Lookahead %d: rejection quarantined the executor: %v", k, ex.Err())
		}
		if tr := ex.Traffic(); tr != (Traffic{}) {
			t.Errorf("Lookahead %d: rejected run moved %+v", k, tr)
		}
	}
}
