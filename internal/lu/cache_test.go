package lu

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"weak"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
)

var allModes = []parallel.Mode{parallel.ModePacked, parallel.ModeView, parallel.ModeShared, parallel.ModeSharedPipelined}

// factored returns the sequential Factor of orig, the bitwise reference
// of every executed factorisation.
func factored(t *testing.T, orig *matrix.Dense, q int) *matrix.Dense {
	t.Helper()
	want := orig.Clone()
	if err := Factor(want, q); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFactorParallelWarmCallFactorsItsOwnMatrix: repeated
// FactorParallelTuned calls of one shape on one team, each on a matrix
// of its own (seeds 1, 2, then 1 again) with a rejected call between
// them, must each factor the matrix they were handed: bitwise equal to
// the sequential Factor, with the first call's traffic.
func TestFactorParallelWarmCallFactorsItsOwnMatrix(t *testing.T) {
	const n, q = 37, 8
	mach := luTestMachine(2, q)
	tun := parallel.Tuning{Optimize: true}
	team, err := parallel.NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	for _, mode := range allModes {
		var first parallel.Traffic
		for call, seed := range []uint64{1, 2, 1} {
			if call > 0 {
				if _, err := FactorParallelTuned(RandomDominant(n, seed), q, team, mode, luTestMachine(3, q), tun); err == nil {
					t.Fatalf("%v: a machine of 3 cores on a team of 2 must be rejected", mode)
				}
			}
			orig := RandomDominant(n, seed)
			a := orig.Clone()
			st, err := FactorParallelTuned(a, q, team, mode, mach, tun)
			if err != nil {
				t.Fatalf("%v call %d: %v", mode, call+1, err)
			}
			if want := factored(t, orig, q); !a.Equal(want) {
				t.Fatalf("%v call %d (seed %d): factors deviate from the sequential Factor by %g",
					mode, call+1, seed, a.MaxAbsDiff(want))
			}
			if call == 0 {
				first = st.Traffic
			} else if st.Traffic != first {
				t.Fatalf("%v call %d: traffic %+v, the first call moved %+v", mode, call+1, st.Traffic, first)
			}
		}
	}
}

// newTeam starts a team of p workers that the test closes.
func newTeam(t *testing.T, p int) *parallel.Team {
	t.Helper()
	team, err := parallel.NewTeam(p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(team.Close)
	return team
}

// keptOn returns the Run the team keeps, leaving it kept, or nil.
func keptOn(team *parallel.Team) *Run {
	k, _ := team.Take().(*keptRun)
	if k == nil {
		return nil
	}
	team.Keep(k)
	return k.run
}

// TestFactorParallelCompilesOncePerKey counts compiles through the run
// a team keeps. A second call with the same key replays the kept
// executor, so it compiles nothing and allocates under 1 MiB: no arena,
// where MachineFor's shared arena alone is 8 MiB. Changing any one key
// field, or calling on another team, builds and compiles a new
// executor, which then serves the next call of its own key.
func TestFactorParallelCompilesOncePerKey(t *testing.T) {
	type call struct {
		n, q int
		mode parallel.Mode
		mach machine.Machine
		tun  parallel.Tuning
	}
	const warmMax = 1 << 20
	team, other := newTeam(t, 2), newTeam(t, 2)
	do := func(team *parallel.Team, c call) (*Run, uint64) {
		t.Helper()
		a := RandomDominant(c.n, 1)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := FactorParallelTuned(a, c.q, team, c.mode, c.mach, c.tun)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		run := keptOn(team)
		if run == nil {
			t.Fatalf("%+v: the team keeps no run after a good call", c)
		}
		return run, after.TotalAlloc - before.TotalAlloc
	}
	base := call{n: 64, q: 8, mode: parallel.ModeSharedPipelined, mach: MachineFor(2, 8), tun: parallel.Tuning{Optimize: true, Lookahead: 1}}
	for _, tc := range []struct {
		field string
		team  *parallel.Team
		edit  func(*call)
	}{
		{"n", team, func(c *call) { c.n = 56 }},
		{"q", team, func(c *call) { c.q = 4 }},
		{"mode", team, func(c *call) { c.mode = parallel.ModeShared }},
		{"CS", team, func(c *call) { c.mach.CS-- }},
		{"CD", team, func(c *call) { c.mach.CD-- }},
		{"Chips", team, func(c *call) { c.mach.Chips = 2 }},
		{"Optimize", team, func(c *call) { c.tun.Optimize = false }},
		{"Lookahead", team, func(c *call) { c.tun.Lookahead = 0 }},
		{"team", other, func(*call) {}},
	} {
		changed := base
		tc.edit(&changed)
		// The first call compiles base again once an earlier case
		// replaced it; the second must not.
		warm, _ := do(team, base)
		if again, bytes := do(team, base); again != warm || bytes >= warmMax {
			t.Fatalf("%s: a repeated key took a new executor (%v) or allocated %d bytes", tc.field, again != warm, bytes)
		}
		cold, bytes := do(tc.team, changed)
		if cold == warm || bytes < warmMax {
			t.Fatalf("%s: a changed key reused the executor (%v) or allocated only %d bytes", tc.field, cold == warm, bytes)
		}
		if again, bytes := do(tc.team, changed); again != cold || bytes >= warmMax {
			t.Fatalf("%s: the changed key's second call took a new executor (%v) or allocated %d bytes", tc.field, again != cold, bytes)
		}
	}
}

// TestFactorParallelFailedCallDropsKeptRun: a call that dies mid-run on
// a singular pivot leaves its team with no kept run. The next call
// compiles afresh and equals a fresh team's call bitwise, with the same
// traffic.
func TestFactorParallelFailedCallDropsKeptRun(t *testing.T) {
	const n, q = 40, 8
	mach := MachineFor(2, q)
	tun := parallel.Tuning{Optimize: true}
	for _, mode := range allModes {
		team := newTeam(t, mach.P)
		if _, err := FactorParallelTuned(RandomDominant(n, 1), q, team, mode, mach, tun); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		warm := keptOn(team)
		if _, err := FactorParallelTuned(SingularInput(n, q, 2, 1), q, team, mode, mach, tun); !errors.Is(err, ErrSingular) {
			t.Fatalf("%v: singular input returned %v, want ErrSingular", mode, err)
		}
		if keptOn(team) != nil {
			t.Fatalf("%v: the failed call left a run on the team", mode)
		}
		a := RandomDominant(n, 2)
		st, err := FactorParallelTuned(a, q, team, mode, mach, tun)
		if err != nil {
			t.Fatalf("%v: the call after the failure: %v", mode, err)
		}
		if run := keptOn(team); run == nil || run == warm {
			t.Fatalf("%v: the call after the failure did not compile a run of its own", mode)
		}
		fresh := RandomDominant(n, 2)
		freshSt, err := FactorParallelTuned(fresh, q, newTeam(t, mach.P), mode, mach, tun)
		if err != nil {
			t.Fatalf("%v: fresh team: %v", mode, err)
		}
		if !a.Equal(fresh) || st.Traffic != freshSt.Traffic {
			t.Fatalf("%v: after the failure the factors differ by %g and traffic is %+v, a fresh team's %+v",
				mode, a.MaxAbsDiff(fresh), st.Traffic, freshSt.Traffic)
		}
	}
}

// TestFactorParallelKeptRunLifetime: the kept run holds no reference to
// the matrix its last call factored, Close releases it, and a call on
// the closed team fails as it would on a team that never kept one.
func TestFactorParallelKeptRunLifetime(t *testing.T) {
	const n, q = 40, 8
	mach := MachineFor(2, q)
	team, err := parallel.NewTeam(mach.P)
	if err != nil {
		t.Fatal(err)
	}
	a := RandomDominant(n, 1)
	if _, err := FactorParallelTuned(a, q, team, parallel.ModeShared, mach, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	w := weak.Make(a)
	a = nil
	runtime.GC()
	if w.Value() != nil {
		t.Fatal("the team's kept run keeps the last factored matrix reachable")
	}
	if keptOn(team) == nil {
		t.Fatal("the team keeps no run after a good call")
	}
	team.Close()
	if keptOn(team) != nil {
		t.Fatal("Close left the kept run on the team")
	}
	if _, err := FactorParallelTuned(RandomDominant(n, 1), q, team, parallel.ModeShared, mach, parallel.DefaultTuning); err == nil || !strings.Contains(err.Error(), "closed Team") {
		t.Fatalf("a call on a closed team returned %v, want a closed-team error", err)
	}
	if keptOn(team) != nil {
		t.Fatal("a closed team kept a run")
	}
}

// TestFactorParallelConcurrentCalls factors at once on two teams, with
// two goroutines sharing one of them, so that the race detector sees a
// kept run pass between goroutines. Every result is bitwise equal to
// the sequential Factor.
func TestFactorParallelConcurrentCalls(t *testing.T) {
	const n, q, calls = 40, 8, 4
	mach := MachineFor(2, q)
	tun := parallel.Tuning{Optimize: true}
	shared := newTeam(t, mach.P)
	var wg sync.WaitGroup
	for g, team := range []*parallel.Team{shared, shared, newTeam(t, mach.P)} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				orig := RandomDominant(n, uint64(g*calls+i))
				a := orig.Clone()
				if _, err := FactorParallelTuned(a, q, team, parallel.ModeSharedPipelined, mach, tun); err != nil {
					t.Errorf("goroutine %d call %d: %v", g, i, err)
					return
				}
				want := orig.Clone()
				if err := Factor(want, q); err != nil {
					t.Error(err)
					return
				}
				if !a.Equal(want) {
					t.Errorf("goroutine %d call %d: factors deviate from the sequential Factor by %g", g, i, a.MaxAbsDiff(want))
					return
				}
			}
		}()
	}
	wg.Wait()
}
