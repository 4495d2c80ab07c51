package repro

// One benchmark per figure of the paper's evaluation section. Each
// benchmark regenerates the corresponding figure's data series at a
// reduced sweep scale (testing.B iterations of a full paper-scale sweep
// would take hours; cmd/figures -scale full produces the big version).
// Benchmarking the generators keeps an eye on simulator throughput,
// which bounds how far the sweeps can be pushed.

import (
	"testing"

	"repro/internal/algo"
	"repro/internal/experiments"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// benchOptions is a small but non-trivial sweep: big enough that the
// algorithms leave the compulsory-miss regime, small enough for
// benchmarking.
func benchOptions() experiments.Options {
	return experiments.Options{
		OrdersSmall: []int{32, 64},
		OrdersLarge: []int{32, 64},
		Ratios:      []float64{0.1, 0.5, 0.9},
		Fig12Order:  48,
	}
}

func benchFigure(b *testing.B, gen func(experiments.Options) ([]experiments.Figure, error)) {
	b.Helper()
	opt := benchOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		figs, err := gen(opt)
		if err != nil {
			b.Fatal(err)
		}
		if len(figs) == 0 {
			b.Fatal("no figures produced")
		}
	}
}

func single(gen func(experiments.Options) (experiments.Figure, error)) func(experiments.Options) ([]experiments.Figure, error) {
	return func(opt experiments.Options) ([]experiments.Figure, error) {
		f, err := gen(opt)
		if err != nil {
			return nil, err
		}
		return []experiments.Figure{f}, nil
	}
}

// BenchmarkFigure4 regenerates Figure 4 (LRU vs formula, MS of Shared
// Opt., CS=977).
func BenchmarkFigure4(b *testing.B) { benchFigure(b, single(experiments.Figure4)) }

// BenchmarkFigure5 regenerates Figure 5 (LRU vs formula, MD of
// Distributed Opt., CD=21).
func BenchmarkFigure5(b *testing.B) { benchFigure(b, single(experiments.Figure5)) }

// BenchmarkFigure6 regenerates Figure 6 (LRU vs formula, Tdata of
// Tradeoff).
func BenchmarkFigure6(b *testing.B) { benchFigure(b, single(experiments.Figure6)) }

// BenchmarkFigure7 regenerates Figure 7(a–c) (shared misses across
// algorithms for the three cache configurations).
func BenchmarkFigure7(b *testing.B) { benchFigure(b, experiments.Figure7) }

// BenchmarkFigure8 regenerates Figure 8(a–c) (distributed misses across
// algorithms for CD ∈ {21, 16, 6}).
func BenchmarkFigure8(b *testing.B) { benchFigure(b, experiments.Figure8) }

// BenchmarkFigure9 regenerates Figure 9(a–d) (Tdata, CS=977).
func BenchmarkFigure9(b *testing.B) { benchFigure(b, experiments.Figure9) }

// BenchmarkFigure10 regenerates Figure 10(a–d) (Tdata, CS=245).
func BenchmarkFigure10(b *testing.B) { benchFigure(b, experiments.Figure10) }

// BenchmarkFigure11 regenerates Figure 11(a–d) (Tdata, CS=157).
func BenchmarkFigure11(b *testing.B) { benchFigure(b, experiments.Figure11) }

// BenchmarkFigure12 regenerates Figure 12(a–f) (Tdata vs bandwidth
// ratio r for all six cache configurations).
func BenchmarkFigure12(b *testing.B) { benchFigure(b, experiments.Figure12) }

// BenchmarkRealExecution measures the goroutine-per-core executor on the
// paper's quad-core parameters (one iteration multiplies 16×16 blocks of
// 32×32 float64 coefficients).
func BenchmarkRealExecution(b *testing.B) {
	for _, name := range []string{"Shared Opt.", "Distributed Opt.", "Tradeoff", "Outer Product"} {
		b.Run(name, func(b *testing.B) {
			mach := QuadCore(32, false)
			tr, err := NewTriple(16, 16, 16, 32, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Multiply(name, tr, mach, ExecPacked, Tuning{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorThroughput isolates the cache simulator cost per
// elementary block product (3 accesses plus staging) for the LRU-50 and
// IDEAL settings. Its paper sub-benchmark is one op of the figure path:
// Shared Opt., Distributed Opt. and Tradeoff on Square(64) under LRU-50
// on the q=32 quad-core.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sim, err := NewSimulator(QuadCore(32, false))
	if err != nil {
		b.Fatal(err)
	}
	for _, setting := range []RunSetting{SettingIdeal, SettingLRU50} {
		b.Run(string(setting), func(b *testing.B) {
			w := Square(32)
			for i := 0; i < b.N; i++ {
				if _, err := sim.RunByName("Tradeoff", w, setting); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(w.Products()*float64(b.N)/b.Elapsed().Seconds(), "products/s")
		})
	}
	b.Run("paper", func(b *testing.B) {
		names := []string{"Shared Opt.", "Distributed Opt.", "Tradeoff"}
		w := Square(64)
		for i := 0; i < b.N; i++ {
			for _, name := range names {
				if _, err := sim.RunByName(name, w, SettingLRU50); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(len(names))*w.Products()*float64(b.N)/b.Elapsed().Seconds(), "products/s")
	})
}

// BenchmarkCompile times the compile passes an executor runs before a
// program's first replay, one sub-benchmark per pass, on the programs of
// the three executor workloads of perfbench, all on two cores: blocked
// LU at n=1024, q=32 (the program a team's first lu.FactorParallelTuned
// call of that shape compiles; see BenchmarkFactorParallelTuned) and
// Tradeoff on 32×32×32 blocks of q=32, both planned for
// the pipelined mode at depth 1; and Shared Opt. on 48×48×48 blocks of
// q=16 (about 110k block ops per replay), planned for the serial shared
// mode. Optimize starts from the lowered program and Measure and the
// planner from the optimized one, as in the executor.
func BenchmarkCompile(b *testing.B) {
	mach32, mach16 := lu.MachineFor(2, 32), lu.MachineFor(2, 16)
	luProg, err := lu.Program(mach32, 32)
	if err != nil {
		b.Fatal(err)
	}
	gemm := func(name string, m machine.Machine, blocks int) *schedule.Program {
		a, err := algo.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		p, err := a.Schedule(m, algo.Square(blocks))
		if err != nil {
			b.Fatal(err)
		}
		return p
	}
	pipelined := func(p *schedule.Program) (*schedule.PipelinePlan, error) {
		return schedule.PlanPipelineDepth(p, mach32.CS, 1)
	}
	for _, c := range []struct {
		name string
		prog *schedule.Program
		plan func(*schedule.Program) (*schedule.PipelinePlan, error)
	}{
		{"lu", luProg, pipelined},
		{"gemm-replay", gemm("Tradeoff", mach32, 32), pipelined},
		{"gemm-fine", gemm("Shared Opt.", mach16, 48), func(p *schedule.Program) (*schedule.PipelinePlan, error) {
			return schedule.PlanSerial(p, mach16.CS)
		}},
	} {
		lowered, err := c.prog.Lowered()
		if err != nil {
			b.Fatal(err)
		}
		opt, _, err := schedule.Optimize(lowered, schedule.OptimizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		passes := []struct {
			name string
			run  func() error
		}{
			{"Lower", func() error { _, err := c.prog.Lower(); return err }},
			{"Optimize", func() error { _, _, err := schedule.Optimize(lowered, schedule.OptimizeOptions{}); return err }},
			{"Measure", func() error { _, err := schedule.Measure(opt); return err }},
			{"Plan", func() error { _, err := c.plan(opt); return err }},
		}
		for _, pass := range passes {
			b.Run(c.name+"/"+pass.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := pass.run(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFactorParallelTuned times one lu.FactorParallelTuned call at
// perfbench lu-oneshot's shape: n=1024, q=32, two cores, the pipelined
// shared mode, optimizer on. cold calls on a fresh team each time, so
// every call compiles its program and allocates its arenas; warm calls
// on one team, whose untimed first call compiled the run the team
// keeps, so every timed call rebinds and replays. Copying the input
// back and starting or closing a team are untimed.
func BenchmarkFactorParallelTuned(b *testing.B) {
	const n, q, p = 1024, 32, 2
	mach := lu.MachineFor(p, q)
	tun := parallel.Tuning{Lookahead: 1, Optimize: true}
	orig := lu.RandomDominant(n, 1)
	a := matrix.New(n, n)
	factor := func(b *testing.B, team *parallel.Team) {
		if err := a.CopyFrom(orig); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err := lu.FactorParallelTuned(a, q, team, parallel.ModeSharedPipelined, mach, tun)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
	}
	newTeam := func(b *testing.B) *parallel.Team {
		team, err := parallel.NewTeam(p)
		if err != nil {
			b.Fatal(err)
		}
		return team
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			team := newTeam(b)
			factor(b, team)
			team.Close()
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		b.StopTimer()
		team := newTeam(b)
		defer team.Close()
		factor(b, team)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			factor(b, team)
		}
	})
}
