package parallel

import (
	"errors"
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// TestFaultDriverTransfersPinned covers both directions of the driver's
// memory↔shared transfers, which the fault grid samples only once per
// program. On Shared Opt. at faultM×faultN×faultZ, whose depth-1 plan
// has barrier, prefetch, retire and tail ops, in ModeShared and
// ModeSharedPipelined at one and two chips, it injects an error and a
// panic at the first, a middle and the last StageShared and
// UnstageShared point, and in the pipelined mode also at the first
// prefetch and the first retire. Each failure must be a RunError naming
// the armed op, quarantine the executor, and leave it bitwise fresh
// after Reset. A corrupted stage with the tripwire armed must fail with
// ErrIntegrity at the op that detected it, and a hand-built program
// that restages a resident shared line must fail organically at that
// driver op. The hash of every Error() string is pinned.
func TestFaultDriverTransfersPinned(t *testing.T) {
	a, err := algo.ByName("Shared Opt.")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
		for _, chips := range []int{1, 2} {
			mach := testMachine(4)
			mach.Chips = chips
			prog, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%v/chips%d", mode, chips)
			got = append(got, name+": "+driverFaultCase(t, name, prog, mode, mach.CD, mach.CS))
		}
	}
	got = append(got, "restage: "+restageFaultCase(t))

	if len(got) != len(pinnedDriverFaults) {
		t.Fatalf("%d cases, %d pinned:\n%s", len(got), len(pinnedDriverFaults), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinnedDriverFaults[i] {
			t.Errorf("case %d:\n got  %s\n want %s", i, got[i], pinnedDriverFaults[i])
		}
	}
}

// driverFaultCase runs one (mode, chips) cell of
// TestFaultDriverTransfersPinned and returns the FNV-64a hash of its
// failures' Error() strings.
func driverFaultCase(t *testing.T, name string, prog *schedule.Program, mode Mode, cd, cs int) string {
	t.Helper()
	want := freshResult(t, prog, mode, cd, cs)
	pristine := faultTriple(t)
	tr := faultTriple(t)
	team, err := NewTeam(prog.Cores)
	if err != nil {
		t.Fatal(err)
	}
	defer team.Close()
	ex, err := NewExecutor(team, tr, nil, mode, cd, cs)
	if err != nil {
		t.Fatal(err)
	}

	// Dry scan: the driver's points, in its program order.
	col := &collector{}
	ex.SetFaultInjector(col)
	if err := ex.Run(prog); err != nil {
		t.Fatalf("%s dry scan: %v", name, err)
	}
	var driver, stages, unstages []faultinject.Point
	for _, p := range col.points() {
		if p.Op.Core != schedule.DriverCore {
			continue
		}
		if p.Op.Index != len(driver) {
			t.Fatalf("%s: driver point %d has index %d", name, len(driver), p.Op.Index)
		}
		driver = append(driver, p)
		if p.Kind == faultinject.StageShared {
			stages = append(stages, p)
		} else {
			unstages = append(unstages, p)
		}
	}
	if len(stages) == 0 || len(unstages) == 0 {
		t.Fatalf("%s: dry scan saw %d stages and %d unstages", name, len(stages), len(unstages))
	}
	targets := []faultinject.Point{
		stages[0], stages[len(stages)/2], stages[len(stages)-1],
		unstages[0], unstages[len(unstages)/2], unstages[len(unstages)-1],
	}
	plan := ex.Plan()
	if len(plan.Tail) == 0 {
		t.Fatalf("%s: plan has no tail ops", name)
	}
	if mode == ModeSharedPipelined {
		// A region's driver ops run Barrier, then Retire, then Prefetch.
		retire, prefetch, idx := -1, -1, 0
		for _, reg := range plan.Regions {
			idx += len(reg.Barrier)
			if retire < 0 && len(reg.Retire) > 0 {
				retire = idx
			}
			idx += len(reg.Retire)
			if prefetch < 0 && len(reg.Prefetch) > 0 {
				prefetch = idx
			}
			idx += len(reg.Prefetch)
		}
		if retire < 0 || prefetch < 0 {
			t.Fatalf("%s: plan has no retire or no prefetch op", name)
		}
		if driver[retire].Kind != faultinject.UnstageShared || driver[prefetch].Kind != faultinject.StageShared {
			t.Fatalf("%s: retire %v, prefetch %v", name, driver[retire], driver[prefetch])
		}
		targets = append(targets, driver[retire], driver[prefetch])
	}

	h := fnv.New64a()
	for _, pt := range targets {
		for _, kind := range []faultinject.ActionKind{faultinject.ActError, faultinject.ActPanic} {
			restoreTriple(t, tr, pristine)
			ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
				Core:    schedule.DriverCore,
				OpIndex: pt.Op.Index,
				Ops:     faultinject.Mask(pt.Kind),
				Action:  faultinject.Action{Kind: kind},
			}}})
			err := ex.Run(prog)
			var re *RunError
			if !errors.As(err, &re) {
				t.Fatalf("%s: fault at %v (%v) surfaced as %v", name, pt.Op, pt.Kind, err)
			}
			if re.Op != pt.Op || re.Site != pt.Kind || re.Line != pt.Line || !re.HasOp {
				t.Fatalf("%s: RunError at %v %v %v (HasOp=%v), fault armed at %v %v %v",
					name, re.Op, re.Site, re.Line, re.HasOp, pt.Op, pt.Kind, pt.Line)
			}
			if re.Panicked != (kind == faultinject.ActPanic) {
				t.Fatalf("%s: RunError Panicked=%v for %v", name, re.Panicked, kind)
			}
			if kind == faultinject.ActError && !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("%s: injected error does not unwrap to ErrInjected: %v", name, err)
			}
			fmt.Fprintln(h, err.Error())
			recoverFresh(t, name, ex, prog, tr, pristine, want)
		}
	}

	// A flipped bit in a staged source copy is caught where the copy is
	// next read.
	var target faultinject.Point
	for _, p := range stages {
		if p.Line.Matrix != matrix.MatC {
			target = p
			break
		}
	}
	restoreTriple(t, tr, pristine)
	ex.SetFaultInjector(&faultinject.Plan{Rules: []faultinject.Rule{{
		Core:    schedule.DriverCore,
		OpIndex: target.Op.Index,
		Ops:     faultinject.Mask(faultinject.StageShared),
		Action:  faultinject.Action{Kind: faultinject.ActCorrupt, Bit: 3},
	}}})
	ex.SetIntegrityChecks(true)
	err = ex.Run(prog)
	var re *RunError
	if !errors.Is(err, ErrIntegrity) || !errors.As(err, &re) || !re.HasOp {
		t.Fatalf("%s: corrupt stage at %v: want an ErrIntegrity RunError naming an op, got %v", name, target.Op, err)
	}
	fmt.Fprintln(h, err.Error())
	ex.SetIntegrityChecks(false)
	recoverFresh(t, name, ex, prog, tr, pristine, want)
	return fmt.Sprintf("%016x", h.Sum64())
}

// recoverFresh checks that a failed Run left ex quarantined, then Resets
// it and requires a clean Run on restored inputs to match want bitwise.
func recoverFresh(t *testing.T, name string, ex *Executor, prog *schedule.Program, tr, pristine *matrix.Triple, want *matrix.Dense) {
	t.Helper()
	if ex.Err() == nil {
		t.Fatalf("%s: failed run left Err() nil", name)
	}
	if err := ex.Run(prog); err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("%s: quarantined executor accepted a Run: %v", name, err)
	}
	ex.Reset()
	if err := ex.Err(); err != nil {
		t.Fatalf("%s: Err() after Reset: %v", name, err)
	}
	ex.SetFaultInjector(nil)
	restoreTriple(t, tr, pristine)
	if err := ex.Run(prog); err != nil {
		t.Fatalf("%s: clean run after Reset: %v", name, err)
	}
	if !bitEqual(tr.C.Dense(), want) {
		t.Fatalf("%s: post-fault run deviates from a fresh executor", name)
	}
}

// restageFaultCase runs a hand-built program whose third driver op
// stages a shared line that is already resident: a discipline violation
// that only the shared arena catches, at run time. It returns the hash
// of the failure's Error() string.
func restageFaultCase(t *testing.T) string {
	t.Helper()
	prog := &schedule.Program{
		Algorithm: "restage",
		Cores:     1,
		Resources: schedule.Resources{SharedBlocks: 3, CoreBlocks: 3},
		Body: func(b schedule.Backend) {
			b.StageShared(schedule.LineA(0, 0))
			b.StageShared(schedule.LineB(0, 0))
			b.StageShared(schedule.LineA(0, 0))
			b.Parallel(func(c int, ops schedule.CoreSink) {
				ops.Stage(schedule.LineA(0, 0))
				ops.Unstage(schedule.LineA(0, 0))
			})
			b.UnstageShared(schedule.LineA(0, 0))
			b.UnstageShared(schedule.LineB(0, 0))
		},
	}
	h := fnv.New64a()
	for _, mode := range []Mode{ModeShared, ModeSharedPipelined} {
		tr, err := matrix.NewTriple(1, 1, 1, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		team, err := NewTeam(1)
		if err != nil {
			t.Fatal(err)
		}
		ex, err := NewExecutor(team, tr, nil, mode, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		err = ex.Run(prog)
		team.Close()
		var re *RunError
		if !errors.As(err, &re) {
			t.Fatalf("%v: restage surfaced as %v", mode, err)
		}
		wantOp := schedule.OpRef{Region: 0, Core: schedule.DriverCore, Index: 2}
		if re.Op != wantOp || re.Site != faultinject.StageShared || re.Line != schedule.LineA(0, 0) || !re.HasOp || re.Panicked {
			t.Fatalf("%v: restage failed as %v, want a driver stage-shared failure at %v", mode, err, wantOp)
		}
		if errors.Is(err, faultinject.ErrInjected) || ex.Err() == nil {
			t.Fatalf("%v: organic failure %v (Err %v)", mode, err, ex.Err())
		}
		fmt.Fprintln(h, err.Error())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedDriverFaults holds each case's hash, in the order the test runs
// them.
var pinnedDriverFaults = []string{
	"shared/chips1: a19754e13dbe50c4",
	"shared/chips2: a19754e13dbe50c4",
	"shared-pipelined/chips1: 77a1339f126569f6",
	"shared-pipelined/chips2: 77a1339f126569f6",
	"restage: f3e9b2c858537901",
}
