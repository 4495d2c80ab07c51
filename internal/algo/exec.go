// Package algo implements the six matrix-product algorithms evaluated in
// the paper (plus the cache-oblivious comparator) as schedule emitters:
//
//   - SharedOpt — Algorithm 1, the Multicore Maximum Reuse Algorithm
//     tuned to minimise shared-cache misses MS (parameter λ);
//   - DistributedOpt — Algorithm 2, tuned to minimise distributed-cache
//     misses MD (parameter µ, 2-D cyclic layout);
//   - Tradeoff — Algorithm 3, tuned to minimise Tdata (parameters α, β);
//   - OuterProduct — the ScaLAPACK-style outer-product baseline;
//   - SharedEqual / DistributedEqual — the Toledo-style equal-thirds
//     baselines at either cache level.
//
// Every algorithm is written once, as a loop nest that emits a
// backend-agnostic schedule.Program. This package's Exec is the cache
// simulator backend: it replays the operation stream against the
// two-level hierarchy under the omniscient IDEAL policy (explicit
// staging, validated residency) or the classical LRU policy (staging
// operations degrade to ordinary accesses, the policy picks victims).
// The real-execution backend lives in internal/parallel and consumes the
// very same programs.
package algo

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// Line aliases the simulator's cache-line identifier (one q×q block).
type Line = cache.Line

// Probe observes the access streams of one run; see schedule.Probe.
// Probes see the streams under every setting, including IDEAL.
type Probe = schedule.Probe

// Workload is the block-dimension triple of one product C = A×B: A is
// M×Z, B is Z×N and C is M×N, all in q×q blocks. An optional Probe
// receives the run's access streams (nil for plain simulation).
type Workload struct {
	M, N, Z int
	Probe   *Probe
}

// Validate rejects non-positive dimensions.
func (w Workload) Validate() error {
	if w.M <= 0 || w.N <= 0 || w.Z <= 0 {
		return fmt.Errorf("algo: workload dimensions must be positive, got %+v", w)
	}
	return nil
}

// Products returns the total number of elementary block products m·n·z.
func (w Workload) Products() float64 {
	return float64(w.M) * float64(w.N) * float64(w.Z)
}

// Square returns the square workload of order n blocks.
func Square(n int) Workload { return Workload{M: n, N: n, Z: n} }

// Setting selects the cache data replacement policy for a run.
type Setting uint8

const (
	// Ideal is the omniscient policy of the theoretical model: the
	// algorithm explicitly stages data at both cache levels.
	Ideal Setting = iota
	// LRU is the classical least-recently-used policy: the algorithm's
	// compute accesses drive the hierarchy, staging is implicit. The p
	// per-core access streams of a parallel region are interleaved
	// round-robin, one operation per core per round.
	LRU
	// LRUSeq is LRU with the per-core streams of each parallel region
	// replayed sequentially (all of core 0, then core 1, …). Real
	// simultaneous cores sit between the two interleavings; the paper
	// does not specify its simulator's choice, and the gap between LRU
	// and LRUSeq measures how sensitive an algorithm's LRU behaviour is
	// to access-stream timing (large for tightly-fitted footprints, as
	// in Figure 4's LRU(CS) curve).
	LRUSeq
)

// String names the setting as in the paper's figures.
func (s Setting) String() string {
	switch s {
	case Ideal:
		return "IDEAL"
	case LRU:
		return "LRU"
	case LRUSeq:
		return "LRU-seq"
	default:
		return fmt.Sprintf("Setting(%d)", uint8(s))
	}
}

// Result gathers the metrics of one simulated run.
type Result struct {
	Algorithm string
	Setting   Setting
	Actual    machine.Machine // hierarchy that was simulated
	Declared  machine.Machine // machine communicated to the algorithm
	Workload  Workload

	MS        uint64   // shared-cache misses (summed over chips)
	MDPerCore []uint64 // distributed misses per core
	MD        uint64   // max over cores (the paper's MD)
	WriteBack uint64   // blocks written back to memory
	Updates   []uint64 // kernel applications (block writes) per core (load balance)
	Tdata     float64  // MS/σS + MD/σD with the actual bandwidths

	// Multi-chip breakdown (IDEAL runs; length 1 matrices on a
	// single-chip machine, with zero inter-chip traffic).
	MSPerChip    []uint64   // shared misses per chip
	ICStages     uint64     // distributed fills that crossed the interconnect
	ICWriteBacks uint64     // dirty merges that crossed the interconnect
	ICStagePairs [][]uint64 // [home][user] inter-chip fill counts
	ICWBPairs    [][]uint64 // [home][user] inter-chip write-back counts
}

// CCRS returns the achieved shared communication-to-computation ratio.
func (r Result) CCRS() float64 { return float64(r.MS) / r.Workload.Products() }

// CCRD returns the achieved distributed CCR of the busiest core,
// MD / (mnz/p).
func (r Result) CCRD() float64 {
	return float64(r.MD) / (r.Workload.Products() / float64(r.Actual.P))
}

// Algorithm is one matrix-product strategy: a named schedule emitter
// with an optional closed-form miss prediction. Everything else —
// simulation under the paper's settings, real parallel execution,
// tracing — is derived from the emitted schedule by the backends.
type Algorithm interface {
	// Name returns the display name used in the paper's figures.
	Name() string
	// Schedule binds the algorithm's loop nest to the parameters derived
	// from the declared machine and returns the backend-agnostic
	// program. It fails if the workload is invalid or the declared
	// caches are too small for the algorithm's minimum footprint.
	Schedule(declared machine.Machine, w Workload) (*schedule.Program, error)
	// Predict returns the paper's closed-form MS and MD for this
	// algorithm (§3), or ok=false if no closed form is stated.
	Predict(declared machine.Machine, w Workload) (ms, md float64, ok bool)
}

// Run simulates algorithm a on a hierarchy with actual's capacities,
// deriving the schedule from declared (which differs from actual under
// the LRU-50 and LRU(2CS) settings). Demand-driven algorithms (no
// staging discipline) always run under plain LRU regardless of s,
// mirroring the paper's figures where their single curve appears
// unchanged in every plot.
func Run(a Algorithm, actual, declared machine.Machine, w Workload, s Setting) (Result, error) {
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	prog, err := a.Schedule(declared, w)
	if err != nil {
		return Result{}, err
	}
	return RunProgram(prog, actual, declared, w, s)
}

// RunProgram simulates an already-emitted program — from a registered
// product algorithm or from any other emitter of the kernel op set, such
// as internal/lu's blocked factorisation — on a hierarchy with actual's
// capacities. The workload is carried only into the Result (for the CCR
// and Tdata derivations); the operation stream is entirely the
// program's. An attached w.Probe observes the run's access streams.
func RunProgram(prog *schedule.Program, actual, declared machine.Machine, w Workload, s Setting) (Result, error) {
	if prog.Cores != actual.P {
		return Result{}, fmt.Errorf("algo: program %q wants %d cores, machine has %d",
			prog.Algorithm, prog.Cores, actual.P)
	}
	if prog.DemandDriven {
		s = LRU
	}
	e, err := NewExec(actual, s, w.Probe)
	if err != nil {
		return Result{}, err
	}
	e.SetHome(prog)
	if err := prog.Emit(e); err != nil {
		return Result{}, err
	}
	return e.Finish(prog.Algorithm, actual, declared, w)
}

// opKind enumerates the per-core operations recorded inside a parallel
// region.
type opKind uint8

const (
	opStage opKind = iota
	opUnstage
	opRead
	opWrite
)

// CoreOps records the operation stream of one core inside a parallel
// region; the Exec replays the p streams round-robin to emulate
// concurrent cores deterministically. It implements schedule.CoreSink.
type CoreOps struct {
	ops []coreOp
}

type coreOp struct {
	kind opKind
	line Line
}

// Stage loads line l into this core's distributed cache (explicit under
// IDEAL, implicit/no-op under LRU).
func (o *CoreOps) Stage(l Line) { o.ops = append(o.ops, coreOp{opStage, l}) }

// Unstage evicts line l from this core's distributed cache, merging a
// dirty copy into the shared cache (no-op under LRU).
func (o *CoreOps) Unstage(l Line) { o.ops = append(o.ops, coreOp{opUnstage, l}) }

// Read records a compute read of l by this core.
func (o *CoreOps) Read(l Line) { o.ops = append(o.ops, coreOp{opRead, l}) }

// Write records a compute write of l by this core.
func (o *CoreOps) Write(l Line) { o.ops = append(o.ops, coreOp{opWrite, l}) }

// Apply records one typed kernel application as the accesses the kernel
// declares: every source read in order, then the destination written.
// The simulator carries no arithmetic, so the kernel's identity matters
// only through its access pattern — which is exactly what the miss
// model of the paper counts.
func (o *CoreOps) Apply(k schedule.Kernel, dest Line, srcs ...Line) {
	k.Accesses(dest, srcs, o.Read, o.Write)
}

// Compute records the elementary block FMA C[i,j] += A[i,k]·B[k,j] as
// Apply(MulAdd, …), preserving the paper's read-read-write order at
// replay granularity (the round-robin interleaving switches cores
// between the individual accesses, exactly as before the schedule IR).
func (o *CoreOps) Compute(i, j, k int) {
	o.Apply(schedule.MulAdd, lineC(i, j), lineA(i, k), lineB(k, j))
}

// Exec adapts schedules to a concrete hierarchy and policy: it is the
// cache-simulator backend of the schedule IR. All cache errors are
// sticky: after the first failure every operation becomes a no-op and
// Err reports the cause (IDEAL-mode errors always indicate a bug in an
// algorithm's staging discipline).
type Exec struct {
	p       int
	setting Setting
	ideal   *cache.IdealHierarchy
	lru     *cache.LRUHierarchy
	buffers []*CoreOps
	pos     []int
	updates []uint64
	probe   *Probe
	homeOf  func(Line) int // home chip per shared line; nil ⇒ chip 0
	err     error
}

// Exec is the simulator backend of the schedule IR.
var _ schedule.Backend = (*Exec)(nil)

// NewExec builds an executor over a fresh hierarchy with the machine's
// capacities under the given setting. probe may be nil.
func NewExec(m machine.Machine, s Setting, probe *Probe) (*Exec, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	e := &Exec{p: m.P, setting: s, updates: make([]uint64, m.P), pos: make([]int, m.P), probe: probe}
	e.buffers = make([]*CoreOps, m.P)
	for i := range e.buffers {
		e.buffers[i] = &CoreOps{}
	}
	var err error
	switch s {
	case Ideal:
		e.ideal, err = cache.NewIdealHierarchyChips(m.P, m.ChipCount(), m.CS, m.CD)
	case LRU, LRUSeq:
		// The LRU policy has no per-chip extension yet: a multi-chip
		// machine's shared level is approximated by one cache holding the
		// union of the chips' capacities.
		e.lru, err = cache.NewLRUHierarchy(m.P, m.CS*m.ChipCount(), m.CD)
	default:
		err = fmt.Errorf("algo: unknown setting %v", s)
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// SetHome installs prog's home-chip placement policy, so shared staging
// and distributed fills route to the right chip. Must be called before
// the program is emitted; without it every line lives on chip 0.
func (e *Exec) SetHome(prog *schedule.Program) {
	e.homeOf = prog.HomeOf
}

func (e *Exec) home(l Line) int {
	if e.homeOf == nil {
		return 0
	}
	return e.homeOf(l)
}

// Cores returns the number of simulated cores.
func (e *Exec) Cores() int { return e.p }

// Err returns the first error encountered, if any.
func (e *Exec) Err() error { return e.err }

func (e *Exec) fail(err error) {
	if e.err == nil && err != nil {
		e.err = err
	}
}

// StageShared loads l from memory into the shared cache. Under IDEAL
// this is an explicit, capacity-checked load (one MS miss). Under the
// LRU settings the pseudocode's load is an ordinary access made at the
// shared level — §4.1: "read and write operations … propagated
// throughout the hierarchy" — which installs or refreshes the line and
// lets the LRU policy pick victims.
func (e *Exec) StageShared(l Line) {
	if e.err != nil {
		return
	}
	if e.probe != nil && e.probe.SharedAccess != nil {
		e.probe.SharedAccess(l)
	}
	if e.setting == Ideal {
		e.fail(e.ideal.LoadSharedChip(e.home(l), l))
		return
	}
	e.lru.SharedRead(l)
}

// UnstageShared evicts l from its home chip's shared cache (IDEAL only).
func (e *Exec) UnstageShared(l Line) {
	if e.err != nil || e.setting != Ideal {
		return
	}
	e.fail(e.ideal.EvictSharedChip(e.home(l), l))
}

// Parallel runs body for every core, then replays the recorded per-core
// operation streams round-robin, one operation per core per round, to
// emulate the paper's "foreach core c = 1..p in parallel" regions
// deterministically.
func (e *Exec) Parallel(body func(core int, ops schedule.CoreSink)) {
	if e.err != nil {
		return
	}
	for c := 0; c < e.p; c++ {
		e.buffers[c].ops = e.buffers[c].ops[:0]
		body(c, e.buffers[c])
	}
	if e.setting == LRUSeq {
		for c := 0; c < e.p; c++ {
			for _, op := range e.buffers[c].ops {
				e.apply(c, op)
			}
		}
		return
	}
	pos := e.pos
	for c := range pos {
		pos[c] = 0
	}
	for done := false; !done; {
		done = true
		for c := 0; c < e.p; c++ {
			buf := e.buffers[c]
			if pos[c] >= len(buf.ops) {
				continue
			}
			e.apply(c, buf.ops[pos[c]])
			pos[c]++
			if pos[c] < len(buf.ops) {
				done = false
			}
		}
	}
}

func (e *Exec) apply(c int, op coreOp) {
	if e.err != nil {
		return
	}
	if e.probe != nil && e.probe.CoreAccess != nil && op.kind != opUnstage {
		e.probe.CoreAccess(c, op.line, op.kind == opWrite)
	}
	switch e.setting {
	case Ideal:
		switch op.kind {
		case opStage:
			e.fail(e.ideal.LoadDistributedFrom(c, e.home(op.line), op.line))
		case opUnstage:
			e.fail(e.ideal.EvictDistributedTo(c, e.home(op.line), op.line))
		case opRead:
			e.fail(e.ideal.Reference(c, op.line))
		case opWrite:
			e.updates[c]++
			e.fail(e.ideal.WriteDistributed(c, op.line))
		}
	case LRU, LRUSeq:
		switch op.kind {
		case opStage:
			// A pseudocode "Load … in the distributed cache of core c"
			// is an ordinary read by that core under LRU.
			e.lru.Read(c, op.line)
		case opUnstage:
			// Unloading is the omniscient policy's privilege; the LRU
			// policy picks its own victims.
		case opRead:
			e.lru.Read(c, op.line)
		case opWrite:
			e.updates[c]++
			e.lru.Write(c, op.line)
		}
	}
}

// metrics returns the hierarchy's miss counters.
func (e *Exec) metrics() cache.Metrics {
	if e.setting == Ideal {
		return e.ideal
	}
	return e.lru
}

// Finish flushes the hierarchy and assembles the Result.
func (e *Exec) Finish(name string, actual, declared machine.Machine, w Workload) (Result, error) {
	if e.err != nil {
		return Result{}, e.err
	}
	var wb uint64
	if e.setting == Ideal {
		e.ideal.Flush()
		wb = e.ideal.MemoryWriteBacks()
	} else {
		e.lru.Flush()
		wb = e.lru.MemoryWriteBacks()
	}
	m := e.metrics()
	res := Result{
		Algorithm: name,
		Setting:   e.setting,
		Actual:    actual,
		Declared:  declared,
		Workload:  w,
		MS:        m.MS(),
		MDPerCore: make([]uint64, e.p),
		MD:        m.MDMax(),
		WriteBack: wb,
		Updates:   append([]uint64(nil), e.updates...),
	}
	for c := 0; c < e.p; c++ {
		res.MDPerCore[c] = m.MD(c)
	}
	if e.setting == Ideal {
		chips := e.ideal.Chips()
		res.MSPerChip = make([]uint64, chips)
		res.ICStagePairs = make([][]uint64, chips)
		res.ICWBPairs = make([][]uint64, chips)
		for home := 0; home < chips; home++ {
			res.MSPerChip[home] = e.ideal.MSChip(home)
			res.ICStagePairs[home] = make([]uint64, chips)
			res.ICWBPairs[home] = make([]uint64, chips)
			for user := 0; user < chips; user++ {
				res.ICStagePairs[home][user] = e.ideal.InterChipStages(home, user)
				res.ICWBPairs[home][user] = e.ideal.InterChipWriteBacks(home, user)
			}
		}
		res.ICStages, res.ICWriteBacks = e.ideal.InterChipTotals()
	}
	res.Tdata = actual.Tdata(res.MS, res.MD)
	return res, nil
}

// split partitions length items into parts nearly equal chunks; see
// schedule.Split.
func split(length, parts, idx int) (lo, hi int) {
	return schedule.Split(length, parts, idx)
}

// lineA, lineB and lineC name blocks of the three operands.
func lineA(i, k int) Line { return schedule.LineA(i, k) }
func lineB(k, j int) Line { return schedule.LineB(k, j) }
func lineC(i, j int) Line { return schedule.LineC(i, j) }

// resources echoes the declared machine's cache parameters into a
// program's Resources metadata, so backends can validate the schedule's
// working set against the capacities it was tuned for.
func resources(declared machine.Machine) schedule.Resources {
	return schedule.Resources{
		SharedBlocks: declared.CS,
		CoreBlocks:   declared.CD,
		Chips:        declared.ChipCount(),
	}
}
