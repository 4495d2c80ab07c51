// Command schedlint statically verifies schedule programs before
// anything runs. The default mode lints the full registered grid —
// every algorithm in the registry plus the LU emitter, on single- and
// dual-chip machines, square and ragged shapes — through the schedule
// verifier, and re-checks both phase plans the executor can run for
// them — ModeShared's serial plan (depth 0) and ModeSharedPipelined's
// depth-1 double buffer — through the independent plan checker. Each
// staged program is then rewritten by schedule.Optimize and the
// optimized program linted to the same standard (zero findings, both
// plans, balanced elision ledger), so a miscompiling optimizer pass is
// caught statically, before any executor replays its stream. Each
// finding carries its op index and line identity, so a broken emitter
// points at the exact operation that violates the invariant.
//
// With -fuzz N it instead decodes N pseudo-random byte programs
// through the same generator the fuzz corpus uses and verifies each:
// a robustness smoke proving the verifier classifies arbitrary garbage
// as findings without panicking. Exit status is 1 when the grid has
// findings; -fuzz only fails by crashing.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/schedule"
	"repro/internal/schedule/verify"
)

var (
	fuzzN = flag.Int("fuzz", 0, "verify N pseudo-random programs instead of the grid")
	seed  = flag.Int64("seed", 1, "PRNG seed for -fuzz")
)

func main() {
	flag.Parse()
	if *fuzzN > 0 {
		fuzz(*fuzzN, *seed)
		return
	}
	os.Exit(grid())
}

func gridMachines() []machine.Machine {
	return []machine.Machine{
		{P: 1, CS: 64, CD: 8, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 2, CS: 64, CD: 8, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 2, CS: 64, CD: 8, Chips: 2, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 4, CS: 140, CD: 12, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
		{P: 4, CS: 140, CD: 12, Chips: 2, SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8},
	}
}

var gridWorkloads = []algo.Workload{
	algo.Square(6),
	{M: 5, N: 3, Z: 7},
	{M: 1, N: 1, Z: 1},
	{M: 7, N: 2, Z: 5},
}

func grid() int {
	programs, findings := 0, 0
	plans := func(label string, p *schedule.Program, cs int) {
		for d := 0; d <= 1; d++ {
			var plan *schedule.PipelinePlan
			var err error
			if d == 0 {
				plan, err = schedule.PlanSerial(p, cs) // ModeShared's plan
			} else {
				plan, err = schedule.PlanPipelineDepth(p, cs, d)
			}
			if err != nil {
				fmt.Printf("%s: depth %d: planner: %v\n", label, d, err)
				findings++
				continue
			}
			for _, f := range verify.Plan(p, plan, cs) {
				fmt.Printf("%s: depth %d: %v\n", label, d, f)
				findings++
			}
		}
	}
	check := func(label string, p *schedule.Program, cs int) {
		programs++
		fs := verify.Program(p, p.Resources)
		for _, f := range fs {
			fmt.Printf("%s: %v\n", label, f)
		}
		findings += len(fs)
		if p.DemandDriven || len(fs) > 0 {
			return // nothing to phase, or not worth planning over a broken program
		}
		plans(label, p, cs)

		// The optimized grid is linted as strictly as the emitted one:
		// schedule.Optimize must rewrite every staged program into one the
		// verifier and the plan checker still find nothing wrong with, and
		// its ledger must account for every baseline stage exactly.
		q, rep, err := schedule.Optimize(p, schedule.OptimizeOptions{})
		if err != nil {
			fmt.Printf("%s: optimize: %v\n", label, err)
			findings++
			return
		}
		if rep.SkipReason != "" {
			fmt.Printf("%s: optimize skipped a staged program: %s\n", label, rep.SkipReason)
			findings++
			return
		}
		for _, lv := range []struct {
			name string
			c    schedule.OptimizeCounts
		}{{"shared", rep.Shared}, {"core", rep.Core}} {
			if lv.c.KeptStages+lv.c.ElidedStages != lv.c.BaselineStages ||
				lv.c.KeptWriteBacks+lv.c.ElidedWriteBacks != lv.c.BaselineWriteBacks {
				fmt.Printf("%s: optimize: %s ledger does not balance: %+v\n", label, lv.name, lv.c)
				findings++
			}
		}
		programs++
		optLabel := label + " +opt"
		ofs := verify.Program(q, q.Resources)
		for _, f := range ofs {
			fmt.Printf("%s: %v\n", optLabel, f)
		}
		findings += len(ofs)
		if len(ofs) == 0 {
			plans(optLabel, q, cs)
		}
	}

	for _, a := range algo.Extended() {
		for _, m := range gridMachines() {
			for _, w := range gridWorkloads {
				label := fmt.Sprintf("%s p=%d chips=%d %dx%dx%d",
					a.Name(), m.P, m.ChipCount(), w.M, w.N, w.Z)
				p, err := a.Schedule(m, w)
				if err != nil {
					fmt.Printf("%s: schedule: %v\n", label, err)
					findings++
					continue
				}
				check(label, p, m.CS)
			}
		}
	}
	for _, m := range gridMachines() {
		for _, nb := range []int{1, 2, 6} {
			label := fmt.Sprintf("LU p=%d chips=%d nb=%d", m.P, m.ChipCount(), nb)
			p, err := lu.Program(m, nb)
			if err != nil {
				fmt.Printf("%s: program: %v\n", label, err)
				findings++
				continue
			}
			check(label, p, m.CS)
		}
	}

	fmt.Printf("schedlint: %d programs linted, %d findings\n", programs, findings)
	if findings > 0 {
		return 1
	}
	return 0
}

// fuzz mirrors FuzzVerifyNeverPanics as a CLI smoke: random byte
// streams through verify.FuzzProgram, each verified (and, when clean
// enough to plan, planned and plan-checked). Any panic crashes with a
// nonzero status; otherwise the findings histogram is reported.
func fuzz(n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	counts := make(map[verify.Kind]int)
	clean := 0
	for i := 0; i < n; i++ {
		data := make([]byte, rng.Intn(48))
		rng.Read(data)
		cores, chips := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		cs, cd := uint8(rng.Intn(256)), uint8(rng.Intn(256))
		p, res := verify.FuzzProgram(cores, chips, cs, cd, data)
		fs := verify.Program(p, res)
		if len(fs) == 0 {
			clean++
		}
		for _, f := range fs {
			counts[f.Kind]++
		}
		sharedCap := res.SharedBlocks
		if sharedCap <= 0 {
			sharedCap = 1
		}
		plan, err := schedule.PlanPipelineDepth(p, sharedCap, 1)
		if err != nil {
			continue // the stream does not lower, or the plan fails its proofs
		}
		for _, f := range verify.Plan(p, plan, sharedCap) {
			counts[f.Kind]++
		}
	}

	kinds := make([]verify.Kind, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	fmt.Printf("schedlint -fuzz: %d programs (seed %d), %d clean\n", n, seed, clean)
	for _, k := range kinds {
		fmt.Printf("  %-20s %d\n", k, counts[k])
	}
}
