package verify_test

import (
	"bufio"
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

// pinGroup is one emitter's programs as the pinned hashes fold them:
// each program's name, the program as emitted and the shared capacity
// its plans get, in grid order.
type pinGroup struct {
	label string
	names []string
	progs []*schedule.Program
	cs    []int
	// bench marks a benchmark program, which is pinned optimized only.
	bench bool
}

func (g *pinGroup) add(name string, p *schedule.Program, cs int) {
	g.names = append(g.names, name)
	g.progs = append(g.progs, p)
	g.cs = append(g.cs, cs)
}

// pinnedPrograms returns the programs the pinned hashes cover, one group
// per emitter: schedlint's grid — every staged emitter and LU on the
// grid machines and workloads — and then the three benchmark programs
// on lu.MachineFor(2, q): Tradeoff on 32³ blocks of q=32, Shared Opt.
// on 48³ blocks of q=16 and LU at n=1024, q=32.
func pinnedPrograms(t *testing.T) []*pinGroup {
	t.Helper()
	var groups []*pinGroup
	for _, a := range algo.Extended() {
		g := &pinGroup{label: a.Name()}
		for _, m := range gridMachines(t) {
			for _, w := range gridWorkloads {
				p, err := a.Schedule(m, w)
				if err != nil {
					t.Fatalf("%s: schedule: %v", a.Name(), err)
				}
				if p.DemandDriven {
					continue // no staging stream to phase
				}
				g.add(fmt.Sprintf("p%d chips%d %dx%dx%d", m.P, m.ChipCount(), w.M, w.N, w.Z), p, m.CS)
			}
		}
		if len(g.progs) > 0 {
			groups = append(groups, g)
		}
	}
	g := &pinGroup{label: "LU"}
	for _, m := range gridMachines(t) {
		for _, nb := range []int{1, 2, 6} {
			p, err := lu.Program(m, nb)
			if err != nil {
				t.Fatalf("lu program: %v", err)
			}
			g.add(fmt.Sprintf("p%d chips%d nb%d", m.P, m.ChipCount(), nb), p, m.CS)
		}
	}
	groups = append(groups, g)

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
		g := &pinGroup{label: b.label, bench: true}
		g.add(fmt.Sprintf("%s %d³ q=%d", b.algorithm, b.blocks, b.q), p, m.CS)
		groups = append(groups, g)
	}
	m := lu.MachineFor(2, 32)
	p, err := lu.Program(m, 1024/32)
	if err != nil {
		t.Fatal(err)
	}
	g = &pinGroup{label: "lu-oneshot", bench: true}
	g.add("LU n=1024 q=32", p, m.CS)
	return append(groups, g)
}

// optimized lowers p and runs the optimizer on it, as the executor does.
func optimized(t *testing.T, p *schedule.Program) (*schedule.Program, schedule.OptimizeReport) {
	t.Helper()
	lowered, err := p.Lowered()
	if err != nil {
		t.Fatalf("%s: lower: %v", p.Algorithm, err)
	}
	q, rep, err := schedule.Optimize(lowered, schedule.OptimizeOptions{})
	if err != nil {
		t.Fatalf("%s: optimize: %v", p.Algorithm, err)
	}
	return q, rep
}

// checkPinned compares hashes with the pinned list, in order.
func checkPinned(t *testing.T, what string, got, pinned []string) {
	t.Helper()
	if len(got) != len(pinned) {
		t.Fatalf("%d %s hashes, %d pinned:\n%s", len(got), what, len(pinned), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinned[i] {
			t.Errorf("%s hash %d:\n got  %s\n want %s", what, i, got[i], pinned[i])
		}
	}
}

// TestPlansPinned pins the phase plans the executor runs: the FNV-64a
// hash of every PlanSerial plan (ModeShared) and every depth-1
// PlanPipelineDepth plan (ModeSharedPipelined) of pinnedPrograms, each
// grid program as emitted and optimized, each benchmark program
// optimized. Each hash folds one emitter's programs in grid order, so a
// change to the planner, the optimizer or an emitter's staging stream
// shows up here under the emitter it touched.
func TestPlansPinned(t *testing.T) {
	var got []string
	for _, g := range pinnedPrograms(t) {
		opt := make([]*schedule.Program, len(g.progs))
		for i, p := range g.progs {
			opt[i], _ = optimized(t, p)
		}
		variants := []struct {
			label string
			progs []*schedule.Program
		}{{g.label, g.progs}, {g.label + " +opt", opt}}
		if g.bench {
			variants = variants[1:]
		}
		for _, v := range variants {
			for _, kind := range []string{"serial", "depth1"} {
				h := fnv.New64a()
				for i, p := range v.progs {
					var plan *schedule.PipelinePlan
					var err error
					if kind == "serial" {
						plan, err = schedule.PlanSerial(p, g.cs[i])
					} else {
						plan, err = schedule.PlanPipelineDepth(p, g.cs[i], 1)
					}
					if err != nil {
						t.Fatalf("%s %s %s: %v", v.label, g.names[i], kind, err)
					}
					fmt.Fprintf(h, "%s\n", g.names[i])
					renderPlan(h, plan)
				}
				got = append(got, fmt.Sprintf("%s/%s (%d programs): %016x", v.label, kind, len(v.progs), h.Sum64()))
			}
		}
	}
	checkPinned(t, "plan", got, pinnedPlans)
}

// renderTrace writes a trace to w as the pinned hashes see it: each
// driver step as its line and unstage flag; each region as its number
// and then, core by core, every op's kind and line, and an Apply's
// kernel and sources, with IDs resolved through the line table.
func renderTrace(w io.Writer, tr *schedule.Trace) {
	for _, st := range tr.Steps {
		if st.Cores == nil {
			fmt.Fprintf(w, "driver %v:%t\n", tr.Lines[st.Shared.Line], st.Shared.Unstage)
			continue
		}
		fmt.Fprintf(w, "region %d\n", st.Region)
		for c, ops := range st.Cores {
			fmt.Fprintf(w, "core %d", c)
			for i := range ops {
				op := &ops[i]
				fmt.Fprintf(w, " %d:%v", op.Kind, tr.Lines[op.Line])
				if op.Kind == schedule.OpApply {
					fmt.Fprintf(w, ":%v", op.Kernel)
					for _, src := range op.Sources() {
						fmt.Fprintf(w, ":%v", tr.Lines[src])
					}
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// TestOptimizedTracesPinned pins what the optimizer returns for each of
// pinnedPrograms: the FNV-64a hash of its OptimizeReport and of the
// trace of the program it returns, folded per emitter in grid order.
// The plan hashes above see only the shared-level stream; this one also
// sees every core-level elision, the compaction and the ledger.
func TestOptimizedTracesPinned(t *testing.T) {
	var got []string
	for _, g := range pinnedPrograms(t) {
		h := fnv.New64a()
		w := bufio.NewWriter(h)
		for i, p := range g.progs {
			q, rep := optimized(t, p)
			tr, err := q.Lower()
			if err != nil {
				t.Fatalf("%s %s: lower the optimized program: %v", g.label, g.names[i], err)
			}
			fmt.Fprintf(w, "%s\n%+v\n", g.names[i], rep)
			renderTrace(w, tr)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s (%d programs): %016x", g.label, len(g.progs), h.Sum64()))
	}
	checkPinned(t, "optimized trace", got, pinnedOptimized)
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

// pinnedOptimized holds the optimized-trace hashes in the order the
// test makes them.
var pinnedOptimized = []string{
	"Shared Opt. (20 programs): 97856b54d5a8b72f",
	"Distributed Opt. (20 programs): f2965e1a72e304be",
	"Tradeoff (20 programs): 8fcd250a1ec0440a",
	"Shared Equal (20 programs): cfbd98244c286e09",
	"Distributed Equal (20 programs): 043c7dc52260f5f8",
	"LU (15 programs): 690c806c80e3e5e9",
	"gemm-replay (1 programs): f2a965ab0e9d54ea",
	"gemm-fine (1 programs): bb51bf2f06c968e8",
	"lu-oneshot (1 programs): e0804b5b63fa5a77",
}
