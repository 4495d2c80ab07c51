package parallel

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// ledgerHash renders everything the executor counted in its most
// recent Run — the per-level traffic, every core's MD share, the
// inter-chip pair matrix, the chip count and the phase plan's overlap
// counts — and returns its FNV-64a hash.
func ledgerHash(ex *Executor, cores int) string {
	h := fnv.New64a()
	tr := ex.Traffic()
	fmt.Fprintf(h, "MS %+v\nMD %+v\nIC %+v\n", tr.MS, tr.MD, tr.IC)
	for c := 0; c < cores; c++ {
		fmt.Fprintf(h, "core %d %+v\n", c, ex.CoreTraffic(c))
	}
	fmt.Fprintf(h, "pairs %+v\nchips %d\n", ex.InterChipPairs(), ex.Chips())
	if p := ex.Plan(); p == nil {
		fmt.Fprint(h, "plan nil\n")
	} else {
		fmt.Fprintf(h, "plan %d %d %d\n", p.Hoisted, p.Retired, p.Barriered)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// sloppyProgram is TestRunFlushesSloppySchedules's program, which
// leaves its dirty C tile in core 0's arena at the end of the run, so
// the end-of-run drain merges it. With chips=2 it runs on two cores
// over two chips and homes C on chip 1, so the drained tile crosses the
// interconnect from core 0's chip.
func sloppyProgram(chips int) *schedule.Program {
	prog := &schedule.Program{
		Algorithm: "sloppy",
		Cores:     chips,
		Resources: schedule.Resources{SharedBlocks: 3, CoreBlocks: 3, Chips: chips},
		Body: func(b schedule.Backend) {
			b.StageShared(schedule.LineA(0, 0))
			b.StageShared(schedule.LineB(0, 0))
			b.StageShared(schedule.LineC(0, 0))
			b.Parallel(func(c int, ops schedule.CoreSink) {
				if c != 0 {
					return
				}
				ops.Stage(schedule.LineA(0, 0))
				ops.Stage(schedule.LineB(0, 0))
				ops.Stage(schedule.LineC(0, 0))
				ops.Compute(0, 0, 0)
			})
		},
	}
	if chips > 1 {
		prog.Home = func(l schedule.Line) int {
			if l.Matrix == matrix.MatC {
				return 1
			}
			return 0
		}
	}
	return prog
}

// TestExecutorLedgerPinned pins the executor's traffic ledger — MS, MD
// and IC, each core's MD share, the inter-chip pairs, the chip count
// and the plan's overlap counts — on the fault grid's programs (every
// emitter at faultM×faultN×faultZ on testMachine(4), in every staging
// mode, at one and two chips for the shared-level modes, optimizer off
// and on) and on the sloppy program that leaves a dirty tile for the
// end-of-run drain, at one chip and at two with the tile homed across
// the interconnect. Each case runs twice on one executor and hashes
// both ledgers, so the per-run reset is pinned too. The LU cases live
// in internal/lu (TestLUExecutorLedgerPinned).
func TestExecutorLedgerPinned(t *testing.T) {
	type ledgerCase struct {
		name    string
		prog    *schedule.Program
		m, n, z int
		q       int
		mode    Mode
		cd, cs  int
	}
	var cases []ledgerCase
	modes := []Mode{ModePacked, ModeShared, ModeSharedPipelined}
	for _, a := range algo.Extended() {
		for _, mode := range modes {
			for _, chips := range []int{1, 2} {
				if chips > 1 && !mode.SharedLevel() {
					continue
				}
				mach := testMachine(4)
				mach.Chips = chips
				prog, err := a.Schedule(mach, algo.Workload{M: faultM, N: faultN, Z: faultZ})
				if err != nil {
					t.Fatal(err)
				}
				if prog.DemandDriven && chips > 1 {
					continue
				}
				cases = append(cases, ledgerCase{fmt.Sprintf("%s/%v/chips%d", a.Name(), mode, chips),
					prog, faultM, faultN, faultZ, faultQ, mode, mach.CD, mach.CS})
			}
		}
	}
	for _, chips := range []int{1, 2} {
		for _, mode := range modes {
			cases = append(cases, ledgerCase{fmt.Sprintf("sloppy/%v/chips%d", mode, chips),
				sloppyProgram(chips), 1, 1, 1, 4, mode, 3, 3})
		}
	}

	var got []string
	for _, c := range cases {
		for _, optimize := range []bool{false, true} {
			tr, err := matrix.NewTriple(c.m, c.n, c.z, c.q, faultSeed)
			if err != nil {
				t.Fatal(err)
			}
			team, err := NewTeam(c.prog.Cores)
			if err != nil {
				t.Fatal(err)
			}
			ex, err := NewExecutor(team, tr, nil, c.mode, c.cd, c.cs)
			if err != nil {
				t.Fatal(err)
			}
			ex.SetTuning(Tuning{Optimize: optimize})
			var hashes []string
			for run := 0; run < 2; run++ {
				if err := ex.Run(c.prog); err != nil {
					t.Fatalf("%s optimize=%v run %d: %v", c.name, optimize, run, err)
				}
				hashes = append(hashes, ledgerHash(ex, c.prog.Cores))
			}
			team.Close()
			got = append(got, fmt.Sprintf("%s/opt=%v: %s", c.name, optimize, strings.Join(hashes, " ")))
		}
	}

	if len(got) != len(pinnedLedgers) {
		t.Fatalf("%d ledgers, %d pinned:\n%s", len(got), len(pinnedLedgers), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinnedLedgers[i] {
			t.Errorf("ledger %d:\n got  %s\n want %s", i, got[i], pinnedLedgers[i])
		}
	}
}

// pinnedLedgers holds each case's two ledger hashes, in the order the
// test runs the cases.
var pinnedLedgers = []string{
	"Shared Opt./packed/chips1/opt=false: c03baf512cbbb0a6 c03baf512cbbb0a6",
	"Shared Opt./packed/chips1/opt=true: a5ae402a49adafc8 a5ae402a49adafc8",
	"Shared Opt./shared/chips1/opt=false: 433f2901a6783785 433f2901a6783785",
	"Shared Opt./shared/chips1/opt=true: 80eff7ebde2ff3b3 80eff7ebde2ff3b3",
	"Shared Opt./shared/chips2/opt=false: 8c6e5c6ab36ec386 8c6e5c6ab36ec386",
	"Shared Opt./shared/chips2/opt=true: c650f6c745589ce4 c650f6c745589ce4",
	"Shared Opt./shared-pipelined/chips1/opt=false: 5c18b61268e5eb55 5c18b61268e5eb55",
	"Shared Opt./shared-pipelined/chips1/opt=true: fed6e60b7d688bbf fed6e60b7d688bbf",
	"Shared Opt./shared-pipelined/chips2/opt=false: 79fc2ccfd1b0f590 79fc2ccfd1b0f590",
	"Shared Opt./shared-pipelined/chips2/opt=true: d1f59d3e341db2ca d1f59d3e341db2ca",
	"Distributed Opt./packed/chips1/opt=false: 9398239c9be9468c 9398239c9be9468c",
	"Distributed Opt./packed/chips1/opt=true: aa98a96db5eb2c35 aa98a96db5eb2c35",
	"Distributed Opt./shared/chips1/opt=false: 446dc558b4b33ff3 446dc558b4b33ff3",
	"Distributed Opt./shared/chips1/opt=true: 70ced8d77c20a550 70ced8d77c20a550",
	"Distributed Opt./shared/chips2/opt=false: 6eceaa2b25c393ac 6eceaa2b25c393ac",
	"Distributed Opt./shared/chips2/opt=true: 8471cfd561f90523 8471cfd561f90523",
	"Distributed Opt./shared-pipelined/chips1/opt=false: 78a768b746619e85 78a768b746619e85",
	"Distributed Opt./shared-pipelined/chips1/opt=true: a51b89f8c1dfec0f a51b89f8c1dfec0f",
	"Distributed Opt./shared-pipelined/chips2/opt=false: a2e6d8601711faee a2e6d8601711faee",
	"Distributed Opt./shared-pipelined/chips2/opt=true: ba36de3a36be50ae ba36de3a36be50ae",
	"Tradeoff/packed/chips1/opt=false: c57eb378703fcecd c57eb378703fcecd",
	"Tradeoff/packed/chips1/opt=true: 8cb838b4873d59ab 8cb838b4873d59ab",
	"Tradeoff/shared/chips1/opt=false: 840294c77e69145c 840294c77e69145c",
	"Tradeoff/shared/chips1/opt=true: f5d0de1ab96caab2 f5d0de1ab96caab2",
	"Tradeoff/shared/chips2/opt=false: 66cdda5fc0d6eee5 66cdda5fc0d6eee5",
	"Tradeoff/shared/chips2/opt=true: 97722c8dd2ead423 97722c8dd2ead423",
	"Tradeoff/shared-pipelined/chips1/opt=false: 840294c77e69145c 840294c77e69145c",
	"Tradeoff/shared-pipelined/chips1/opt=true: f5d0de1ab96caab2 f5d0de1ab96caab2",
	"Tradeoff/shared-pipelined/chips2/opt=false: 66cdda5fc0d6eee5 66cdda5fc0d6eee5",
	"Tradeoff/shared-pipelined/chips2/opt=true: 97722c8dd2ead423 97722c8dd2ead423",
	"Outer Product/packed/chips1/opt=false: 2d7be429783f3573 2d7be429783f3573",
	"Outer Product/packed/chips1/opt=true: 2d7be429783f3573 2d7be429783f3573",
	"Outer Product/shared/chips1/opt=false: 2d7be429783f3573 2d7be429783f3573",
	"Outer Product/shared/chips1/opt=true: 2d7be429783f3573 2d7be429783f3573",
	"Outer Product/shared-pipelined/chips1/opt=false: 2d7be429783f3573 2d7be429783f3573",
	"Outer Product/shared-pipelined/chips1/opt=true: 2d7be429783f3573 2d7be429783f3573",
	"Shared Equal/packed/chips1/opt=false: f1ec681fe56aceeb f1ec681fe56aceeb",
	"Shared Equal/packed/chips1/opt=true: 56681412461c79eb 56681412461c79eb",
	"Shared Equal/shared/chips1/opt=false: c15519a7043d53fc c15519a7043d53fc",
	"Shared Equal/shared/chips1/opt=true: b5caedeeb8014918 b5caedeeb8014918",
	"Shared Equal/shared/chips2/opt=false: 22e63892b3f1043d 22e63892b3f1043d",
	"Shared Equal/shared/chips2/opt=true: dd4ee533a5278eeb dd4ee533a5278eeb",
	"Shared Equal/shared-pipelined/chips1/opt=false: c15519a7043d53fc c15519a7043d53fc",
	"Shared Equal/shared-pipelined/chips1/opt=true: b5caedeeb8014918 b5caedeeb8014918",
	"Shared Equal/shared-pipelined/chips2/opt=false: 22e63892b3f1043d 22e63892b3f1043d",
	"Shared Equal/shared-pipelined/chips2/opt=true: dd4ee533a5278eeb dd4ee533a5278eeb",
	"Distributed Equal/packed/chips1/opt=false: f4e42c71c4d80b26 f4e42c71c4d80b26",
	"Distributed Equal/packed/chips1/opt=true: b8c47de6daa39a8d b8c47de6daa39a8d",
	"Distributed Equal/shared/chips1/opt=false: 52edd28c356dbdaf 52edd28c356dbdaf",
	"Distributed Equal/shared/chips1/opt=true: 0cf0f77ce2bb36ea 0cf0f77ce2bb36ea",
	"Distributed Equal/shared/chips2/opt=false: 36bab92d2388cd80 36bab92d2388cd80",
	"Distributed Equal/shared/chips2/opt=true: 4d2587cdb990d609 4d2587cdb990d609",
	"Distributed Equal/shared-pipelined/chips1/opt=false: 2efd3da47a7f05aa 2efd3da47a7f05aa",
	"Distributed Equal/shared-pipelined/chips1/opt=true: 1c02c96da2651553 1c02c96da2651553",
	"Distributed Equal/shared-pipelined/chips2/opt=false: 0f0ba1ee7cd24c95 0f0ba1ee7cd24c95",
	"Distributed Equal/shared-pipelined/chips2/opt=true: 36f0c4b23895c7f6 36f0c4b23895c7f6",
	"Cache Oblivious/packed/chips1/opt=false: 2d7be429783f3573 2d7be429783f3573",
	"Cache Oblivious/packed/chips1/opt=true: 2d7be429783f3573 2d7be429783f3573",
	"Cache Oblivious/shared/chips1/opt=false: 2d7be429783f3573 2d7be429783f3573",
	"Cache Oblivious/shared/chips1/opt=true: 2d7be429783f3573 2d7be429783f3573",
	"Cache Oblivious/shared-pipelined/chips1/opt=false: 2d7be429783f3573 2d7be429783f3573",
	"Cache Oblivious/shared-pipelined/chips1/opt=true: 2d7be429783f3573 2d7be429783f3573",
	"sloppy/packed/chips1/opt=false: 184a8f6179abf93e 184a8f6179abf93e",
	"sloppy/packed/chips1/opt=true: 184a8f6179abf93e 184a8f6179abf93e",
	"sloppy/shared/chips1/opt=false: bf46919f942fee46 bf46919f942fee46",
	"sloppy/shared/chips1/opt=true: bf46919f942fee46 bf46919f942fee46",
	"sloppy/shared-pipelined/chips1/opt=false: bf46919f942fee46 bf46919f942fee46",
	"sloppy/shared-pipelined/chips1/opt=true: bf46919f942fee46 bf46919f942fee46",
	"sloppy/packed/chips2/opt=false: 37b52f9c8b43ddd2 37b52f9c8b43ddd2",
	"sloppy/packed/chips2/opt=true: 37b52f9c8b43ddd2 37b52f9c8b43ddd2",
	"sloppy/shared/chips2/opt=false: 176b50e708b09aed 176b50e708b09aed",
	"sloppy/shared/chips2/opt=true: 176b50e708b09aed 176b50e708b09aed",
	"sloppy/shared-pipelined/chips2/opt=false: 176b50e708b09aed 176b50e708b09aed",
	"sloppy/shared-pipelined/chips2/opt=true: 176b50e708b09aed 176b50e708b09aed",
}
