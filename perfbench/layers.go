package main

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/parallel"
	"repro/internal/schedule"
)

// layerSet collects the traced run's per-layer values by metric name. A
// metric a workload never sets is reported as 0 and printed as n/a.
type layerSet map[string]float64

// batchTarget is how long one timed batch of a short call must last for
// the clock's resolution and the span's own cost to vanish in it.
const batchTarget = 10 * time.Millisecond

// perCall times f in batches and returns the median time of one call
// over five batches. A batch repeats f until it lasts batchTarget; the
// untraced calibration batches double as warm-up.
func perCall(tr *tracer, name string, f func() error) (time.Duration, error) {
	n := 1
	for {
		start := time.Now()
		for range n {
			if err := f(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		if time.Since(start) >= batchTarget {
			break
		}
		n *= 2
	}
	per := make([]float64, 5)
	for i := range per {
		h := tr.startCalls(name, -1, -1, n)
		for range n {
			if err := f(); err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
		}
		per[i] = h.end().Seconds() / float64(n)
	}
	return time.Duration(median(per) * 1e9), nil
}

// sample times single calls of f, each in its own span, until it has 25
// of them or has spent half a second, and returns their median. A call
// slower than the budget is timed once.
func sample(tr *tracer, name string, f func() error) (time.Duration, error) {
	var ds []time.Duration
	var total time.Duration
	for len(ds) < 25 && (len(ds) == 0 || total < 500*time.Millisecond) {
		d, err := tr.timed(name, -1, -1, f)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, d)
		total += d
	}
	return time.Duration(median(seconds(ds)) * 1e9), nil
}

// kernelProbe measures the register-blocked MulAdd kernel on resident,
// contiguous q×q tiles from one goroutine: the executor's innermost
// call with no staging around it.
func kernelProbe(tr *tracer, ls layerSet, q int, seed uint64) error {
	a, b, c := matrix.Random(q, q, seed), matrix.Random(q, q, seed+1), matrix.New(q, q)
	d, err := perCall(tr, "matrix.KernelConfig.MulAdd", func() error {
		return tuning.Kernels.MulAdd(c, a, b)
	})
	if err != nil {
		return err
	}
	ls["matrix.kernel_gflops"] = 2 * float64(q*q*q) / d.Seconds() / 1e9
	return nil
}

// tileSweep lists the tiles of a blocked matrix with their packed
// images, the inputs of the staging probes.
type tileSweep struct {
	m     *matrix.Blocked
	lines []schedule.Line
	views []*matrix.Dense
	packs [][]float64 // packed image of each tile
	out   []*matrix.Dense
	bytes float64 // bytes of one pass over every tile
}

// newTileSweep packs every tile of m once, and gives each a same-shaped
// scratch destination so write-backs never touch the operand.
func newTileSweep(m *matrix.Blocked) (*tileSweep, error) {
	s := &tileSweep{m: m}
	scratch, err := matrix.NewBlocked(m.ID, matrix.New(m.Dense().Rows(), m.Dense().Cols()), m.Q)
	if err != nil {
		return nil, err
	}
	for i := range m.BlockRows() {
		for j := range m.BlockCols() {
			v := m.Block(i, j)
			img := make([]float64, v.Rows()*v.Cols())
			if _, err := matrix.Pack(img, v); err != nil {
				return nil, err
			}
			s.lines = append(s.lines, m.Coord(i, j))
			s.views = append(s.views, v)
			s.packs = append(s.packs, img)
			s.out = append(s.out, scratch.Block(i, j))
			s.bytes += float64(len(img) * 8)
		}
	}
	return s, nil
}

// packProbe measures matrix.Pack plus matrix.Unpack over every tile of
// the operand: the memory↔core copy of ModePacked staging.
func packProbe(tr *tracer, ls layerSet, s *tileSweep) error {
	buf := make([]float64, len(s.packs[0]))
	d, err := perCall(tr, "matrix.Pack+Unpack/sweep", func() error {
		for i, v := range s.views {
			if _, err := matrix.Pack(buf, v); err != nil {
				return err
			}
			if err := matrix.Unpack(s.out[i], buf[:v.Rows()*v.Cols()]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ls["matrix.pack_gbps"] = 2 * s.bytes / d.Seconds() / 1e9
	return nil
}

// sigmaProbe measures the two bandwidths of the paper's model on the
// operand's tiles. σS: SharedArena.Stage of every tile from memory and
// SharedArena.Unstage writing every (dirtied) tile back. σD: in chunks
// of a core arena's capacity cd, SharedArena.Refill into the Arena and
// SharedArena.Absorb of a packed image back. Each figure is the median
// of five passes; arena bookkeeping that moves no data (dirtying for
// the write-back, releasing clean core copies) is left out of the time.
func sigmaProbe(tr *tracer, ls layerSet, s *tileSweep, cd int) error {
	sa, err := parallel.NewSharedArena(len(s.lines), s.m.Q)
	if err != nil {
		return err
	}
	core, err := parallel.NewArena(cd, s.m.Q)
	if err != nil {
		return err
	}
	n := len(s.lines)
	var sigS, sigD []float64
	for range 5 {
		var stageT, refillT time.Duration
		h := tr.startCalls("parallel.SharedArena.Stage", -1, -1, n)
		for i, l := range s.lines {
			if _, err := sa.Stage(l, s.views[i]); err != nil {
				return err
			}
		}
		stageT += h.end()
		for lo := 0; lo < n; lo += cd {
			hi := min(lo+cd, n)
			h := tr.startCalls("parallel.SharedArena.Refill", -1, -1, hi-lo)
			for _, l := range s.lines[lo:hi] {
				if _, err := sa.Refill(core, l); err != nil {
					return err
				}
			}
			refillT += h.end()
			for i, l := range s.lines[lo:hi] {
				if err := core.Unstage(l, s.out[lo+i]); err != nil {
					return err
				}
			}
			h = tr.startCalls("parallel.SharedArena.Absorb", -1, -1, hi-lo)
			for i, l := range s.lines[lo:hi] {
				v := s.views[lo+i]
				if err := sa.Absorb(l, v.Rows(), v.Cols(), s.packs[lo+i]); err != nil {
					return err
				}
			}
			refillT += h.end()
		}
		h = tr.startCalls("parallel.SharedArena.Unstage", -1, -1, n)
		for i, l := range s.lines {
			if _, dirty, err := sa.Unstage(l, s.out[i]); err != nil {
				return err
			} else if !dirty {
				return fmt.Errorf("sigma probe: shared copy of %v was not written back", l)
			}
		}
		stageT += h.end()
		sigS = append(sigS, 2*s.bytes/stageT.Seconds()/1e9)
		sigD = append(sigD, 2*s.bytes/refillT.Seconds()/1e9)
	}
	ls["parallel.sigma_s_gbps"] = median(sigS)
	ls["parallel.sigma_d_gbps"] = median(sigD)
	return nil
}

// barrierProbe measures one Team.Run with an empty body: the cost of a
// region barrier at the team's size.
func barrierProbe(tr *tracer, ls layerSet, team *parallel.Team) error {
	d, err := perCall(tr, "parallel.Team.Run/empty", func() error {
		return team.Run(func(int) error { return nil })
	})
	if err != nil {
		return err
	}
	ls["parallel.barrier_us"] = d.Seconds() * 1e6
	return nil
}

// opCounter is a schedule.Backend that only counts what a program
// emits: the regions that carry work (as the executor runs them), the
// per-core operations inside them, and the driver's shared staging.
type opCounter struct {
	cores                       int
	regions, coreOps, driverOps int
}

func (c *opCounter) StageShared(schedule.Line)   { c.driverOps++ }
func (c *opCounter) UnstageShared(schedule.Line) { c.driverOps++ }

func (c *opCounter) Parallel(body func(core int, ops schedule.CoreSink)) {
	before := c.coreOps
	for core := range c.cores {
		body(core, coreCounter{c})
	}
	if c.coreOps > before {
		c.regions++
	}
}

// coreCounter counts one core's operations. Read and Write annotate
// demand-driven accesses and are not operations of their own.
type coreCounter struct{ c *opCounter }

func (s coreCounter) Stage(schedule.Line)                                    { s.c.coreOps++ }
func (s coreCounter) Unstage(schedule.Line)                                  { s.c.coreOps++ }
func (s coreCounter) Read(schedule.Line)                                     {}
func (s coreCounter) Write(schedule.Line)                                    {}
func (s coreCounter) Apply(schedule.Kernel, schedule.Line, ...schedule.Line) { s.c.coreOps++ }
func (s coreCounter) Compute(int, int, int)                                  { s.c.coreOps++ }

// compileProbe repeats, call by call, the compile steps the executor
// takes before its first replay of prog: schedule.Optimize, then
// schedule.Measure and (pipelined mode only) schedule.PlanPipelineDepth
// of the optimized program, and a Program.Emit walk of it into a
// counting backend, which also gives the program's exact op counts.
func compileProbe(tr *tracer, ls layerSet, prog *schedule.Program, mach machine.Machine, mode parallel.Mode) error {
	var opt *schedule.Program
	var rep schedule.OptimizeReport
	d, err := sample(tr, "schedule.Optimize", func() (err error) {
		opt, rep, err = schedule.Optimize(prog, schedule.OptimizeOptions{})
		return err
	})
	if err != nil {
		return err
	}
	ls["schedule.optimize_s"] = d.Seconds()
	ls["schedule.elided_blocks"] = float64(rep.TotalElided())
	if d, err = sample(tr, "schedule.Measure", func() error {
		_, err := schedule.Measure(opt)
		return err
	}); err != nil {
		return err
	}
	ls["schedule.measure_s"] = d.Seconds()
	if mode == parallel.ModeSharedPipelined {
		if d, err = sample(tr, "schedule.PlanPipelineDepth", func() error {
			_, err := schedule.PlanPipelineDepth(opt, mach.CS, tuning.Lookahead)
			return err
		}); err != nil {
			return err
		}
		ls["schedule.plan_s"] = d.Seconds()
	}
	var count opCounter
	if d, err = sample(tr, "schedule.Program.Emit", func() error {
		count = opCounter{cores: prog.Cores}
		return opt.Emit(&count)
	}); err != nil {
		return err
	}
	ls["schedule.emit_s"] = d.Seconds()
	ls["schedule.regions"] = float64(count.regions)
	ls["schedule.core_ops"] = float64(count.coreOps)
	ls["schedule.driver_ops"] = float64(count.driverOps)
	return nil
}

// replayProfile is what the executor reports about its replays.
type replayProfile struct {
	wall, stageWait, compute []time.Duration
}

func (r *replayProfile) add(wall time.Duration, ex *parallel.Executor) {
	r.wall = append(r.wall, wall)
	r.stageWait = append(r.stageWait, ex.StageWait())
	r.compute = append(r.compute, ex.ComputeTime())
}

// executorLayers records the replay breakdown and the traffic of the
// executor's last run, reconciled against the replay wall time, and
// the paper's Tdata prediction from the σS and σD sigmaProbe measured.
func executorLayers(ls layerSet, first time.Duration, prof replayProfile, ex *parallel.Executor, mode parallel.Mode, cores int) {
	replay := median(seconds(prof.wall))
	rest := make([]float64, len(prof.wall))
	for i, w := range prof.wall {
		rest[i] = (w - prof.stageWait[i] - prof.compute[i]).Seconds()
	}
	ls["parallel.first_run_s"] = first.Seconds()
	ls["parallel.replay_s"] = replay
	ls["parallel.compile_s"] = first.Seconds() - replay
	ls["parallel.stage_wait_s"] = median(seconds(prof.stageWait))
	ls["parallel.compute_s"] = median(seconds(prof.compute))
	ls["parallel.unaccounted_s"] = median(rest)
	ls["parallel.unaccounted_share"] = median(rest) / replay
	if plan := ex.Plan(); plan != nil {
		ls["parallel.overlap"] = plan.Overlapped()
	}
	t := ex.Traffic()
	ls["parallel.ms_bytes"] = float64(t.MS.Bytes())
	ls["parallel.md_bytes"] = float64(t.MD.Bytes())
	per := make([]float64, cores)
	var total float64
	for c := range per {
		per[c] = float64(ex.CoreTraffic(c).Bytes())
		total += per[c]
	}
	if total > 0 {
		ls["parallel.md_imbalance"] = slices.Max(per) / (total / float64(cores))
	}
	// The paper's MD is the busiest core's stream: the cores move their
	// shares concurrently, each at σD.
	msTime := ls["parallel.ms_bytes"] / (ls["parallel.sigma_s_gbps"] * 1e9)
	ls["model.tdata_pred_s"] = msTime + slices.Max(per)/(ls["parallel.sigma_d_gbps"]*1e9)
	if mode == parallel.ModeShared && msTime > 0 {
		// Serial staging puts the whole MS stream on the driver, so the
		// measured stage wait is directly comparable to the time σS
		// predicts for it.
		ls["model.ms_ratio"] = ls["parallel.stage_wait_s"] / msTime
	}
}
