package main

import (
	"fmt"
	"time"

	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// tuning is fixed rather than read from TUNE.json: that file is keyed by
// host, so it would apply on one machine and not on the next.
var tuning = parallel.Tuning{
	Kernels:   matrix.KernelConfig{Shape: matrix.Shape4x4},
	Lookahead: 1,
	Optimize:  true,
}

// gemmTolerance is the max |C − reference| the repository's tests
// accept for an executed product against the sequential blocked one.
const gemmTolerance = 1e-9

// config is what every workload's set-up receives.
type config struct {
	seed uint64
	p    int  // team size
	tiny bool // smoke-test sizes
	tr   *tracer
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name  string
	why   string
	setup func(cfg config) (instance, error)
}

// instance is a set-up workload. The benchmark loop calls prepare, then
// times op, then calls check; only op is timed.
type instance interface {
	// reference computes the expected output once, untimed, and checks
	// any output set-up already produced.
	reference() error
	prepare() error
	op(n int) error
	check() error
	// work is the useful work of one op: GFLOP for the executor
	// workloads, millions of simulated block products for the simulator.
	work() (gflop, mproducts float64)
	// layers runs the traced run's per-layer probes.
	layers(ls layerSet) error
	close()
}

var workloads = []workload{
	{
		name:  "gemm-replay",
		why:   "Tradeoff n=1024 q=32 pipelined, compiled once in set-up: the paper's headline schedule, where kernels and worker replay dominate",
		setup: gemmWorkload(gemmSpec{algo: "Tradeoff", order: 32, q: 32, mode: parallel.ModeSharedPipelined}, gemmSpec{algo: "Tradeoff", order: 4, q: 8, mode: parallel.ModeSharedPipelined}),
	},
	{
		name:  "gemm-fine",
		why:   "Shared Opt. n=768 q=16 serial shared staging: ~110k block ops per replay, so dispatch, arena staging and the serial memory-shared path dominate",
		setup: gemmWorkload(gemmSpec{algo: "Shared Opt.", order: 48, q: 16, mode: parallel.ModeShared}, gemmSpec{algo: "Shared Opt.", order: 6, q: 4, mode: parallel.ModeShared}),
	},
	{
		name:  "lu-oneshot",
		why:   "one lu.FactorParallelTuned call at n=1024 q=32: five kernel types, shrinking regions, many barriers, and the only op that compiles every time",
		setup: luWorkload(1024, 32, 64, 16),
	},
	{
		name:  "sim-paper",
		why:   "cache simulator on the paper's q=32 quad-core, three algorithms on Square(64) under LRU-50: the figure path, no executor or kernel runs",
		setup: simWorkload(64, 8),
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// ---- GEMM: one compiled executor, replayed ----

type gemmSpec struct {
	algo     string
	order, q int // matrix order in blocks, block edge
	mode     parallel.Mode
}

type gemmRun struct {
	cfg   config
	spec  gemmSpec
	mach  machine.Machine
	alg   algo.Algorithm
	t     *matrix.Triple
	team  *parallel.Team
	prog  *schedule.Program
	ex    *parallel.Executor
	first time.Duration // the compiling first Run
	seq   time.Duration // the sequential reference product
	want  *matrix.Dense // C of the verified first run; replays must equal it bitwise
	prof  replayProfile // traced replays
}

func gemmWorkload(full, tiny gemmSpec) func(config) (instance, error) {
	return func(cfg config) (instance, error) {
		spec := full
		if cfg.tiny {
			spec = tiny
		}
		g := &gemmRun{cfg: cfg, spec: spec, mach: lu.MachineFor(cfg.p, spec.q)}
		if err := g.setup(); err != nil {
			g.close()
			return nil, fmt.Errorf("%s set-up: %w", spec.algo, err)
		}
		return g, nil
	}
}

// setup generates the operands from the seed, builds the team and the
// executor, and compiles the program by running it once.
func (g *gemmRun) setup() (err error) {
	tr, s := g.cfg.tr, g.spec
	h := tr.start("matrix.NewTriple", -1, -1)
	g.t, err = matrix.NewTriple(s.order, s.order, s.order, s.q, g.cfg.seed)
	h.end()
	if err != nil {
		return err
	}
	if g.alg, err = algo.ByName(s.algo); err != nil {
		return err
	}
	h = tr.start("algo.Algorithm.Schedule", -1, -1)
	g.prog, err = g.alg.Schedule(g.mach, algo.Workload{M: s.order, N: s.order, Z: s.order})
	h.end()
	if err != nil {
		return err
	}
	if g.team, err = parallel.NewTeam(g.cfg.p); err != nil {
		return err
	}
	if g.ex, err = parallel.NewExecutor(g.team, g.t, nil, s.mode, g.mach.CD, g.mach.CS); err != nil {
		return err
	}
	g.ex.SetTuning(tuning)
	h = tr.start("parallel.Executor.Run/first", -1, -1)
	err = g.ex.Run(g.prog)
	g.first = h.end()
	return err
}

func (g *gemmRun) reference() error {
	var want *matrix.Dense
	var err error
	g.seq, err = g.cfg.tr.timed("parallel.Reference", -1, -1, func() error {
		want, err = parallel.Reference(g.t)
		return err
	})
	if err != nil {
		return err
	}
	if d := g.t.C.Dense().MaxAbsDiff(want); d > gemmTolerance {
		return fmt.Errorf("first run deviates from the sequential reference by %g", d)
	}
	g.want = g.t.C.Dense().Clone()
	return nil
}

func (g *gemmRun) prepare() error {
	g.t.C.Dense().Zero()
	return nil
}

func (g *gemmRun) op(n int) error {
	h := g.cfg.tr.start("parallel.Executor.Run", n, -1)
	err := g.ex.Run(g.prog)
	d := h.end()
	if err == nil && g.cfg.tr.on {
		g.prof.add(d, g.ex)
	}
	return err
}

func (g *gemmRun) check() error {
	if !g.t.C.Dense().Equal(g.want) {
		return fmt.Errorf("replay is not bitwise equal to the verified first run")
	}
	return nil
}

func (g *gemmRun) work() (float64, float64) {
	n := float64(g.spec.order * g.spec.q)
	return 2 * n * n * n / 1e9, 0
}

func (g *gemmRun) layers(ls layerSet) error {
	tr := g.cfg.tr
	if err := commonProbes(tr, ls, g.t.A, g.mach, g.team, g.cfg.seed); err != nil {
		return err
	}
	executorLayers(ls, g.first, g.prof, g.ex, g.spec.mode, g.cfg.p)
	n := float64(g.spec.order * g.spec.q)
	ls["matrix.seq_gflops"] = 2 * n * n * n / g.seq.Seconds() / 1e9
	w := algo.Workload{M: g.spec.order, N: g.spec.order, Z: g.spec.order}
	d, err := sample(tr, "algo.Algorithm.Schedule", func() error {
		_, err := g.alg.Schedule(g.mach, w)
		return err
	})
	if err != nil {
		return err
	}
	ls["algo.schedule_s"] = d.Seconds()
	return compileProbe(tr, ls, g.prog, g.mach, g.spec.mode)
}

func (g *gemmRun) close() {
	if g.team != nil {
		g.team.Close()
	}
}

// commonProbes runs the executor workloads' micro-probes on the
// workload's own operand, block edge, machine and team.
func commonProbes(tr *tracer, ls layerSet, operand *matrix.Blocked, mach machine.Machine, team *parallel.Team, seed uint64) error {
	if err := kernelProbe(tr, ls, operand.Q, seed); err != nil {
		return err
	}
	sweep, err := newTileSweep(operand)
	if err != nil {
		return err
	}
	if err := packProbe(tr, ls, sweep); err != nil {
		return err
	}
	if err := sigmaProbe(tr, ls, sweep, mach.CD); err != nil {
		return err
	}
	return barrierProbe(tr, ls, team)
}

// ---- LU: one call factors one matrix, compile included ----

type luRun struct {
	cfg  config
	n, q int
	mach machine.Machine
	team *parallel.Team
	a0   *matrix.Dense // the generated input
	ref  *matrix.Dense // lu.Factor of a0: every call must equal it bitwise
	a    *matrix.Dense // factored in place by each op
	seq  time.Duration
}

const luMode = parallel.ModeSharedPipelined

func luWorkload(n, q, tinyN, tinyQ int) func(config) (instance, error) {
	return func(cfg config) (instance, error) {
		r := &luRun{cfg: cfg, n: n, q: q}
		if cfg.tiny {
			r.n, r.q = tinyN, tinyQ
		}
		r.mach = lu.MachineFor(cfg.p, r.q)
		h := cfg.tr.start("lu.RandomDominant", -1, -1)
		r.a0 = lu.RandomDominant(r.n, cfg.seed)
		h.end()
		r.a = matrix.New(r.n, r.n)
		var err error
		if r.team, err = parallel.NewTeam(cfg.p); err != nil {
			return nil, err
		}
		return r, nil
	}
}

func (r *luRun) reference() error {
	r.ref = r.a0.Clone()
	var err error
	r.seq, err = r.cfg.tr.timed("lu.Factor", -1, -1, func() error { return lu.Factor(r.ref, r.q) })
	return err
}

func (r *luRun) prepare() error { return r.a.CopyFrom(r.a0) }

func (r *luRun) op(n int) error {
	h := r.cfg.tr.start("lu.FactorParallelTuned", n, -1)
	_, err := lu.FactorParallelTuned(r.a, r.q, r.team, luMode, r.mach, tuning)
	h.end()
	return err
}

func (r *luRun) check() error {
	if !r.a.Equal(r.ref) {
		return fmt.Errorf("factors are not bitwise equal to lu.Factor")
	}
	return nil
}

func (r *luRun) work() (float64, float64) {
	n := float64(r.n)
	return 2 * n * n * n / 3 / 1e9, 0
}

// layers splits the one-shot call: lu.NewRun, the first Run of its
// fresh executor (compile and replay), then replays of the same run,
// and the compile steps one by one.
func (r *luRun) layers(ls layerSet) error {
	tr := r.cfg.tr
	n := float64(r.n)
	ls["matrix.seq_gflops"] = 2 * n * n * n / 3 / r.seq.Seconds() / 1e9
	d, err := sample(tr, "lu.NewRun", func() error {
		_, err := lu.NewRun(r.a, r.q, r.team, luMode, r.mach, tuning)
		return err
	})
	if err != nil {
		return err
	}
	ls["lu.newrun_s"] = d.Seconds()
	run, err := lu.NewRun(r.a, r.q, r.team, luMode, r.mach, tuning)
	if err != nil {
		return err
	}
	var first time.Duration
	var prof replayProfile
	for i := range 6 {
		if err := r.prepare(); err != nil {
			return err
		}
		name := "parallel.Executor.Run"
		if i == 0 {
			name += "/first"
		}
		d, err := tr.timed(name, -1, -1, func() error { return run.Ex.Run(run.Prog) })
		if err != nil {
			return err
		}
		if err := r.check(); err != nil {
			return err
		}
		if i == 0 {
			first = d
		} else {
			prof.add(d, run.Ex)
		}
	}
	operand, err := matrix.NewBlocked(matrix.MatA, r.a0, r.q)
	if err != nil {
		return err
	}
	if err := commonProbes(tr, ls, operand, r.mach, r.team, r.cfg.seed); err != nil {
		return err
	}
	executorLayers(ls, first, prof, run.Ex, luMode, r.cfg.p)
	return compileProbe(tr, ls, run.Prog, r.mach, luMode)
}

func (r *luRun) close() { r.team.Close() }

// ---- Simulator: the paper's figure path ----

type simRun struct {
	cfg   config
	sim   *core.Simulator
	w     algo.Workload
	last  []algo.Result // results of the latest op, per simAlgos entry
	first []algo.Result // results of the first op; every op must match
	runs  [][]time.Duration
}

func simWorkload(order, tinyOrder int) func(config) (instance, error) {
	return func(cfg config) (instance, error) {
		n := order
		if cfg.tiny {
			n = tinyOrder
		}
		c, err := machine.FindConfig(32)
		if err != nil {
			return nil, err
		}
		sim, err := core.New(c.Machine(machine.PaperCores, false))
		if err != nil {
			return nil, err
		}
		return &simRun{
			cfg: cfg, sim: sim, w: algo.Square(n),
			last: make([]algo.Result, len(simAlgos)),
			runs: make([][]time.Duration, len(simAlgos)),
		}, nil
	}
}

// reference has nothing to compute: the simulator is checked against
// its own first op.
func (s *simRun) reference() error { return nil }

func (s *simRun) prepare() error { return nil }

func (s *simRun) op(n int) error {
	tr := s.cfg.tr
	root := tr.start("bench.op", n, -1)
	defer root.end()
	for i, a := range simAlgos {
		h := tr.start("core.Simulator.RunByName/"+a.key, n, root.id)
		res, err := s.sim.RunByName(a.name, s.w, core.SettingLRU50)
		d := h.end()
		if err != nil {
			return err
		}
		s.last[i] = res
		if tr.on {
			s.runs[i] = append(s.runs[i], d)
		}
	}
	return nil
}

func (s *simRun) check() error {
	if s.first == nil {
		s.first = append([]algo.Result(nil), s.last...)
		return nil
	}
	for i, r := range s.last {
		f := s.first[i]
		if r.MS != f.MS || r.MD != f.MD {
			return fmt.Errorf("%s: MS/MD %d/%d differ from the first op's %d/%d", simAlgos[i].name, r.MS, r.MD, f.MS, f.MD)
		}
	}
	return nil
}

func (s *simRun) work() (float64, float64) {
	return 0, float64(len(simAlgos)) * s.w.Products() / 1e6
}

func (s *simRun) layers(ls layerSet) error {
	b := s.sim.Bounds(s.w)
	for i, a := range simAlgos {
		ls["core.run_s."+a.key] = median(seconds(s.runs[i]))
		ls["algo.sim_ms."+a.key] = float64(s.first[i].MS)
		ls["algo.sim_md."+a.key] = float64(s.first[i].MD)
		ls["bounds.ms_ratio."+a.key] = float64(s.first[i].MS) / b.MS
	}
	return nil
}

func (s *simRun) close() {}
