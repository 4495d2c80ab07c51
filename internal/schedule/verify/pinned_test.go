package verify_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/schedule"
)

// renderPlan writes a plan to w as the pinned hashes see it: each
// region's prefetch, barrier and retire lists, one op per entry with
// its line (resolved through the plan's line table) and unstage flag,
// then the tail and the plan's counts.
func renderPlan(w io.Writer, plan *schedule.PipelinePlan) {
	op := func(id schedule.LineID, unstage bool) { fmt.Fprintf(w, " %v:%t", plan.Lines[id], unstage) }
	for r, reg := range plan.Regions {
		fmt.Fprintf(w, "region %d\nprefetch", r)
		for _, id := range reg.Prefetch {
			op(id, false)
		}
		fmt.Fprint(w, "\nbarrier")
		for _, o := range reg.Barrier {
			op(o.Line, o.Unstage)
		}
		fmt.Fprint(w, "\nretire")
		for _, id := range reg.Retire {
			op(id, true)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprint(w, "tail")
	for _, o := range plan.Tail {
		op(o.Line, o.Unstage)
	}
	fmt.Fprintf(w, "\ndepth %d serial peak %d peak %d hoisted %d retired %d barriered %d\n",
		plan.Depth, plan.SerialPeak, plan.Peak, plan.Hoisted, plan.Retired, plan.Barriered)
}

// TestPlansPinned pins the phase plans the executor runs: the FNV-64a
// hash of every PlanSerial plan (ModeShared) and every depth-1
// PlanPipelineDepth plan (ModeSharedPipelined), over schedlint's grid —
// every staged emitter and LU on the grid machines and workloads, as
// emitted and optimized — and over the three benchmark programs on
// lu.MachineFor(2, q), optimized: Tradeoff on 32³ blocks of q=32,
// Shared Opt. on 48³ blocks of q=16 and LU at n=1024, q=32. Each hash
// folds one emitter's programs in grid order, so a change to the
// planner, the optimizer or an emitter's staging stream shows up here
// under the emitter it touched.
func TestPlansPinned(t *testing.T) {
	type group struct {
		label string
		progs []*schedule.Program
		names []string
		cs    []int
	}
	var groups []*group
	add := func(g *group, name string, p *schedule.Program, cs int) {
		g.progs = append(g.progs, p)
		g.names = append(g.names, name)
		g.cs = append(g.cs, cs)
	}
	optimized := func(p *schedule.Program) *schedule.Program {
		t.Helper()
		lowered, err := p.Lowered()
		if err != nil {
			t.Fatalf("%s: lower: %v", p.Algorithm, err)
		}
		q, _, err := schedule.Optimize(lowered, schedule.OptimizeOptions{})
		if err != nil {
			t.Fatalf("%s: optimize: %v", p.Algorithm, err)
		}
		return q
	}

	for _, a := range algo.Extended() {
		plain, opt := &group{label: a.Name()}, &group{label: a.Name() + " +opt"}
		for _, m := range gridMachines(t) {
			for _, w := range gridWorkloads {
				p, err := a.Schedule(m, w)
				if err != nil {
					t.Fatalf("%s: schedule: %v", a.Name(), err)
				}
				if p.DemandDriven {
					continue // no staging stream to phase
				}
				name := fmt.Sprintf("p%d chips%d %dx%dx%d", m.P, m.ChipCount(), w.M, w.N, w.Z)
				add(plain, name, p, m.CS)
				add(opt, name, optimized(p), m.CS)
			}
		}
		if len(plain.progs) > 0 {
			groups = append(groups, plain, opt)
		}
	}
	plain, opt := &group{label: "LU"}, &group{label: "LU +opt"}
	for _, m := range gridMachines(t) {
		for _, nb := range []int{1, 2, 6} {
			p, err := lu.Program(m, nb)
			if err != nil {
				t.Fatalf("lu program: %v", err)
			}
			name := fmt.Sprintf("p%d chips%d nb%d", m.P, m.ChipCount(), nb)
			add(plain, name, p, m.CS)
			add(opt, name, optimized(p), m.CS)
		}
	}
	groups = append(groups, plain, opt)

	for _, b := range []struct {
		label     string
		algorithm string
		blocks, q int
	}{
		{"gemm-replay", "Tradeoff", 32, 32},
		{"gemm-fine", "Shared Opt.", 48, 16},
	} {
		a, err := algo.ByName(b.algorithm)
		if err != nil {
			t.Fatal(err)
		}
		m := lu.MachineFor(2, b.q)
		p, err := a.Schedule(m, algo.Square(b.blocks))
		if err != nil {
			t.Fatalf("%s: schedule: %v", b.label, err)
		}
		g := &group{label: b.label + " +opt"}
		add(g, fmt.Sprintf("%s %d³ q=%d", b.algorithm, b.blocks, b.q), optimized(p), m.CS)
		groups = append(groups, g)
	}
	m := lu.MachineFor(2, 32)
	p, err := lu.Program(m, 1024/32)
	if err != nil {
		t.Fatal(err)
	}
	g := &group{label: "lu-oneshot +opt"}
	add(g, "LU n=1024 q=32", optimized(p), m.CS)
	groups = append(groups, g)

	var got []string
	for _, g := range groups {
		for _, kind := range []string{"serial", "depth1"} {
			h := fnv.New64a()
			for i, p := range g.progs {
				var plan *schedule.PipelinePlan
				var err error
				if kind == "serial" {
					plan, err = schedule.PlanSerial(p, g.cs[i])
				} else {
					plan, err = schedule.PlanPipelineDepth(p, g.cs[i], 1)
				}
				if err != nil {
					t.Fatalf("%s %s %s: %v", g.label, g.names[i], kind, err)
				}
				fmt.Fprintf(h, "%s\n", g.names[i])
				renderPlan(h, plan)
			}
			got = append(got, fmt.Sprintf("%s/%s (%d programs): %016x", g.label, kind, len(g.progs), h.Sum64()))
		}
	}

	if len(got) != len(pinnedPlans) {
		t.Fatalf("%d plan hashes, %d pinned:\n%s", len(got), len(pinnedPlans), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinnedPlans[i] {
			t.Errorf("plan hash %d:\n got  %s\n want %s", i, got[i], pinnedPlans[i])
		}
	}
}

// pinnedPlans holds the plan hashes in the order the test makes them.
var pinnedPlans = []string{
	"Shared Opt./serial (20 programs): 7239837903ff30bd",
	"Shared Opt./depth1 (20 programs): 4afa45d9505c4544",
	"Shared Opt. +opt/serial (20 programs): 7239837903ff30bd",
	"Shared Opt. +opt/depth1 (20 programs): 4afa45d9505c4544",
	"Distributed Opt./serial (20 programs): 8386176601c17730",
	"Distributed Opt./depth1 (20 programs): ee2a612939d9e97c",
	"Distributed Opt. +opt/serial (20 programs): 865d6ea5557e3a16",
	"Distributed Opt. +opt/depth1 (20 programs): ea24a29d833098b5",
	"Tradeoff/serial (20 programs): a5c2827560a4f3c1",
	"Tradeoff/depth1 (20 programs): c84cc95dbeb8212d",
	"Tradeoff +opt/serial (20 programs): fe56fac81bc24b3b",
	"Tradeoff +opt/depth1 (20 programs): b8c796709c6b921c",
	"Shared Equal/serial (20 programs): eebbc3c287dfe3f8",
	"Shared Equal/depth1 (20 programs): c2813f497d4642f6",
	"Shared Equal +opt/serial (20 programs): a8a0cd1843d6ad77",
	"Shared Equal +opt/depth1 (20 programs): 7016118b1e274f4e",
	"Distributed Equal/serial (20 programs): 42cff106afe7b746",
	"Distributed Equal/depth1 (20 programs): c02a849730ebc697",
	"Distributed Equal +opt/serial (20 programs): f51dea2d98c711af",
	"Distributed Equal +opt/depth1 (20 programs): d3c61b12effaba08",
	"LU/serial (15 programs): e3ca95003b1b07a1",
	"LU/depth1 (15 programs): 035fcd88e8f17eb7",
	"LU +opt/serial (15 programs): 5dfe8e8618a87339",
	"LU +opt/depth1 (15 programs): 68bfd1675b08442a",
	"gemm-replay +opt/serial (1 programs): c9e72fc8235a749e",
	"gemm-replay +opt/depth1 (1 programs): 2874f768082b424c",
	"gemm-fine +opt/serial (1 programs): bce503100b55db6b",
	"gemm-fine +opt/depth1 (1 programs): 4373a74830fc2a50",
	"lu-oneshot +opt/serial (1 programs): 8303ff5fcf652685",
	"lu-oneshot +opt/depth1 (1 programs): f08750c8cd29c889",
}
