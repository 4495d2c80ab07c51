package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algo"
	"repro/internal/machine"
)

// pinnedResult renders the counters of one simulated run that the
// golden test pins: MS, the per-core MD, the memory write-backs and the
// per-core kernel updates, plus the per-chip MS and the inter-chip
// pair matrices of IDEAL runs.
func pinnedResult(label string, r algo.Result) string {
	s := fmt.Sprintf("%s: MS=%d MD=%v WB=%d U=%v", label, r.MS, r.MDPerCore, r.WriteBack, r.Updates)
	if r.Setting == algo.Ideal {
		s += fmt.Sprintf(" MSc=%v ICs=%v ICw=%v", r.MSPerChip, r.ICStagePairs, r.ICWBPairs)
	}
	return s
}

// TestSimulatorCountsPinned pins the simulator's exact miss counts on
// three groups of runs: the paper-scale figure op (the three
// algorithms of the Tdata figures on Square(64) under LRU-50 on the
// q=32 quad-core), every registered algorithm under the four settings
// and LRU-seq on a small ragged workload, and every registered
// algorithm under IDEAL on a two-chip machine. Any change to emission
// order or to the caches' replacement shows up here first.
func TestSimulatorCountsPinned(t *testing.T) {
	var got []string

	cfg, err := machine.FindConfig(32)
	if err != nil {
		t.Fatal(err)
	}
	paper, err := New(cfg.Machine(machine.PaperCores, false))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Shared Opt.", "Distributed Opt.", "Tradeoff"} {
		res, err := paper.RunByName(name, algo.Square(64), SettingLRU50)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, pinnedResult(name+"/LRU-50/64", res))
	}

	small := testMachine()
	s, err := New(small)
	if err != nil {
		t.Fatal(err)
	}
	ragged := algo.Workload{M: 7, N: 9, Z: 5}
	for _, a := range algo.Extended() {
		for _, set := range Settings() {
			res, err := s.Run(a, ragged, set)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name(), set, err)
			}
			got = append(got, pinnedResult(a.Name()+"/"+string(set)+"/7x9x5", res))
		}
		res, err := algo.Run(a, small, small, ragged, algo.LRUSeq)
		if err != nil {
			t.Fatalf("%s/LRU-seq: %v", a.Name(), err)
		}
		got = append(got, pinnedResult(a.Name()+"/LRU-seq/7x9x5", res))
	}

	twoChip := machine.Machine{P: 4, CS: 140, CD: 12, Chips: 2,
		SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8}
	for _, a := range algo.Extended() {
		res, err := algo.RunIdeal(a, twoChip, ragged)
		if err != nil {
			t.Fatalf("%s/IDEAL chips=2: %v", a.Name(), err)
		}
		got = append(got, pinnedResult(a.Name()+"/IDEAL-2chip/7x9x5", res))
	}

	if len(got) != len(pinnedCounts) {
		t.Fatalf("%d runs, %d pinned:\n%s", len(got), len(pinnedCounts), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != pinnedCounts[i] {
			t.Errorf("run %d:\n got  %s\n want %s", i, got[i], pinnedCounts[i])
		}
	}
}

// pinnedCounts holds the runs' counters in the order the test makes
// them.
var pinnedCounts = []string{
	"Shared Opt./LRU-50/64: MS=36886 MD=[97893 76638 76638 76638] WB=4159 U=[77824 61440 61440 61440]",
	"Distributed Opt./LRU-50/64: MS=73728 MD=[66560 66560 66560 66560] WB=4096 U=[65536 65536 65536 65536]",
	"Tradeoff/LRU-50/64: MS=36864 MD=[75392 75392 75392 75392] WB=4096 U=[65536 65536 65536 65536]",
	"Shared Opt./IDEAL/7x9x5: MS=143 MD=[245 175 175 175] WB=63 U=[105 70 70 70] MSc=[143] ICs=[[0]] ICw=[[0]]",
	"Shared Opt./LRU/7x9x5: MS=143 MD=[215 115 115 115] WB=63 U=[105 70 70 70]",
	"Shared Opt./LRU-2x/7x9x5: MS=143 MD=[155 115 115 115] WB=63 U=[105 70 70 70]",
	"Shared Opt./LRU-50/7x9x5: MS=143 MD=[190 115 115 115] WB=63 U=[105 70 70 70]",
	"Shared Opt./LRU-seq/7x9x5: MS=143 MD=[215 115 115 115] WB=63 U=[105 70 70 70]",
	"Distributed Opt./IDEAL/7x9x5: MS=258 MD=[130 110 96 82] WB=63 U=[100 75 80 60] MSc=[258] ICs=[[0]] ICw=[[0]]",
	"Distributed Opt./LRU/7x9x5: MS=143 MD=[202 146 168 118] WB=63 U=[100 75 80 60]",
	"Distributed Opt./LRU-2x/7x9x5: MS=143 MD=[130 109 96 82] WB=63 U=[100 75 80 60]",
	"Distributed Opt./LRU-50/7x9x5: MS=143 MD=[220 190 176 152] WB=63 U=[100 75 80 60]",
	"Distributed Opt./LRU-seq/7x9x5: MS=143 MD=[202 146 168 118] WB=63 U=[100 75 80 60]",
	"Tradeoff/IDEAL/7x9x5: MS=178 MD=[130 110 96 82] WB=63 U=[100 75 80 60] MSc=[178] ICs=[[0]] ICw=[[0]]",
	"Tradeoff/LRU/7x9x5: MS=143 MD=[202 146 168 118] WB=63 U=[100 75 80 60]",
	"Tradeoff/LRU-2x/7x9x5: MS=143 MD=[130 107 96 82] WB=63 U=[100 75 80 60]",
	"Tradeoff/LRU-50/7x9x5: MS=143 MD=[215 162 165 122] WB=63 U=[100 75 80 60]",
	"Tradeoff/LRU-seq/7x9x5: MS=143 MD=[202 146 168 118] WB=63 U=[100 75 80 60]",
	"Outer Product/IDEAL/7x9x5: MS=143 MD=[220 165 180 135] WB=63 U=[100 75 80 60]",
	"Outer Product/LRU/7x9x5: MS=143 MD=[220 165 180 135] WB=63 U=[100 75 80 60]",
	"Outer Product/LRU-2x/7x9x5: MS=143 MD=[145 115 120 95] WB=63 U=[100 75 80 60]",
	"Outer Product/LRU-50/7x9x5: MS=143 MD=[220 165 180 135] WB=63 U=[100 75 80 60]",
	"Outer Product/LRU-seq/7x9x5: MS=143 MD=[220 165 180 135] WB=63 U=[100 75 80 60]",
	"Shared Equal/IDEAL/7x9x5: MS=178 MD=[200 200 200 100] WB=63 U=[90 90 90 45] MSc=[178] ICs=[[0]] ICw=[[0]]",
	"Shared Equal/LRU/7x9x5: MS=143 MD=[184 184 184 92] WB=63 U=[90 90 90 45]",
	"Shared Equal/LRU-2x/7x9x5: MS=143 MD=[184 184 184 92] WB=63 U=[90 90 90 45]",
	"Shared Equal/LRU-50/7x9x5: MS=143 MD=[300 200 100 100] WB=63 U=[135 90 45 45]",
	"Shared Equal/LRU-seq/7x9x5: MS=143 MD=[184 184 184 92] WB=63 U=[90 90 90 45]",
	"Distributed Equal/IDEAL/7x9x5: MS=418 MD=[220 165 176 132] WB=63 U=[100 75 80 60] MSc=[418] ICs=[[0]] ICw=[[0]]",
	"Distributed Equal/LRU/7x9x5: MS=143 MD=[220 165 176 132] WB=63 U=[100 75 80 60]",
	"Distributed Equal/LRU-2x/7x9x5: MS=143 MD=[140 105 116 87] WB=63 U=[100 75 80 60]",
	"Distributed Equal/LRU-50/7x9x5: MS=143 MD=[220 165 176 132] WB=63 U=[100 75 80 60]",
	"Distributed Equal/LRU-seq/7x9x5: MS=143 MD=[220 165 176 132] WB=63 U=[100 75 80 60]",
	"Cache Oblivious/IDEAL/7x9x5: MS=143 MD=[198 146 160 118] WB=63 U=[100 75 80 60]",
	"Cache Oblivious/LRU/7x9x5: MS=143 MD=[198 146 160 118] WB=63 U=[100 75 80 60]",
	"Cache Oblivious/LRU-2x/7x9x5: MS=143 MD=[136 107 104 82] WB=63 U=[100 75 80 60]",
	"Cache Oblivious/LRU-50/7x9x5: MS=143 MD=[198 146 160 118] WB=63 U=[100 75 80 60]",
	"Cache Oblivious/LRU-seq/7x9x5: MS=143 MD=[198 146 160 118] WB=63 U=[100 75 80 60]",
	"Shared Opt./IDEAL-2chip/7x9x5: MS=143 MD=[245 175 175 175] WB=63 U=[105 70 70 70] MSc=[143 0] ICs=[[0 350] [0 0]] ICw=[[0 140] [0 0]]",
	"Distributed Opt./IDEAL-2chip/7x9x5: MS=258 MD=[130 110 96 82] WB=63 U=[100 75 80 60] MSc=[190 68] ICs=[[0 70] [0 0]] ICw=[[0 0] [0 0]]",
	"Tradeoff/IDEAL-2chip/7x9x5: MS=178 MD=[150 125 112 94] WB=63 U=[100 75 80 60] MSc=[178 0] ICs=[[0 206] [0 0]] ICw=[[0 56] [0 0]]",
	"Outer Product/IDEAL-2chip/7x9x5: MS=143 MD=[145 115 120 95] WB=63 U=[100 75 80 60]",
	"Shared Equal/IDEAL-2chip/7x9x5: MS=223 MD=[300 200 100 100] WB=63 U=[135 90 45 45] MSc=[223 0] ICs=[[0 200] [0 0]] ICw=[[0 90] [0 0]]",
	"Distributed Equal/IDEAL-2chip/7x9x5: MS=258 MD=[130 110 96 82] WB=63 U=[100 75 80 60] MSc=[258 0] ICs=[[0 178] [0 0]] ICw=[[0 28] [0 0]]",
	"Cache Oblivious/IDEAL-2chip/7x9x5: MS=143 MD=[144 112 114 84] WB=63 U=[100 75 80 60]",
}
