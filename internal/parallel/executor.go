package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"slices"
	"time"

	"repro/internal/faultinject"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Mode selects how the executor realises the schedule's staging
// operations.
type Mode uint8

const (
	// ModePacked realises the distributed level: Stage packs a block from
	// the operand matrices into the core's staging arena, Compute runs
	// the contiguous micro-kernel on arena-resident operands, and Unstage
	// writes dirty C blocks back to the matrices. Shared staging stays a
	// probe-only hint.
	ModePacked Mode = iota
	// ModeView is the strided baseline: staging operations carry no data
	// movement (only the probe observes them) and the kernel reads q×q
	// tiles as strided views into the full matrices. It exists so the
	// benchmarks can measure what physical staging buys.
	ModeView
	// ModeShared realises both cache levels: a shared stage packs a
	// block from the operand matrices into the Team-wide shared arena (CS
	// slots), per-core Stage refills each core's arena from the shared
	// arena (an intra-chip copy), dirty core tiles merge upward into the
	// shared copy on Unstage, and a shared release writes dirty shared
	// tiles back to memory — so the memory↔shared (MS) and shared↔core
	// (MD) streams are physically distinct and separately counted. The
	// shared transfers run on the driving goroutine between regions, in
	// program order (the schedule.PlanSerial phase plan).
	ModeShared
	// ModeSharedPipelined is ModeShared with the memory↔shared stream
	// taken off the critical path: while the Team's cores compute a
	// region, the driving goroutine acts as the stager — it prefetches
	// the next region's StageShared lines into spare shared slots and
	// retires the previous gap's write-backs concurrently with the
	// workers, under the statically verified phase plan of
	// schedule.PlanPipelineDepth. The executed operation stream — and
	// with it every MS/MD block and byte count — is bit-identical to
	// ModeShared; only the timing overlaps.
	ModeSharedPipelined
)

// String names the mode as it appears in benchmark records.
func (m Mode) String() string {
	switch m {
	case ModePacked:
		return "packed"
	case ModeView:
		return "view"
	case ModeShared:
		return "shared"
	case ModeSharedPipelined:
		return "shared-pipelined"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// SharedLevel reports whether the mode materialises the shared cache
// level (a Team-wide arena between memory and the core arenas).
func (m Mode) SharedLevel() bool { return m == ModeShared || m == ModeSharedPipelined }

// ParseMode resolves a benchmark-record mode name to its Mode.
func ParseMode(s string) (Mode, error) {
	for _, m := range []Mode{ModePacked, ModeView, ModeShared, ModeSharedPipelined} {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("parallel: unknown executor mode %q (want packed, view, shared or shared-pipelined)", s)
}

// LevelTraffic counts the physical transfers the executor performed
// across one boundary of the memory hierarchy during a Run: stages move
// blocks downward (towards the cores), write-backs move dirty blocks
// upward. Blocks count transfer operations — the unit of the
// simulator's MS/MD miss counts — while bytes count the float64 values
// actually copied, so ragged edge tiles weigh exactly what they moved.
type LevelTraffic struct {
	StageBlocks     uint64
	StageBytes      uint64
	WriteBackBlocks uint64
	WriteBackBytes  uint64
}

// Bytes returns the total bytes moved across the boundary.
func (t LevelTraffic) Bytes() uint64 { return t.StageBytes + t.WriteBackBytes }

func (t *LevelTraffic) stage(values int) {
	t.StageBlocks++
	t.StageBytes += 8 * uint64(values)
}

func (t *LevelTraffic) writeBack(values int) {
	t.WriteBackBlocks++
	t.WriteBackBytes += 8 * uint64(values)
}

func (t *LevelTraffic) add(o LevelTraffic) {
	t.StageBlocks += o.StageBlocks
	t.StageBytes += o.StageBytes
	t.WriteBackBlocks += o.WriteBackBlocks
	t.WriteBackBytes += o.WriteBackBytes
}

// Traffic is the per-level physical data movement of one Run, the
// executed counterpart of the simulator's MS/MD miss counts. MS is the
// memory↔shared-arena stream and MD the shared↔core stream; for a
// well-disciplined schedule in ModeShared, MS.StageBlocks equals the
// IDEAL simulator's MS and MD.StageBlocks the sum over cores of its
// MD(c). In ModePacked no shared arena exists: core arenas fill
// straight from memory, that stream is reported as MD, and MS stays
// zero. ModeView moves no data at all.
//
// IC is the inter-chip stream of a multi-chip run: the subset of MD
// whose block was homed on a foreign chip's shared arena, so the
// refill (stage) or dirty merge (write-back) crossed the interconnect.
// It is always zero on a single-chip topology, and IC blocks are
// counted in addition to — never instead of — their MD blocks, so MS
// and MD are invariant across chip counts for the same program.
type Traffic struct {
	MS LevelTraffic
	MD LevelTraffic
	IC LevelTraffic
}

// Executor is the real-execution backend of the schedule IR: it maps
// the same operation stream the cache simulator replays onto a Team of
// worker goroutines computing on float64 blocks.
//
// The program's trace drives the replay in every mode: Run lowers each
// program once (schedule.Program.Lower) and keeps the trace with the
// compiled program, and every Run walks it region by region — any
// attached probe fed each core's accesses in the core's program order,
// exactly matching the simulator probe's per-core streams — with the
// Team running each region's per-core op slices directly (see replay).
// In ModePacked every core owns an Arena sized from the
// declared machine's distributed-cache capacity; Stage/Unstage move
// blocks between the operand matrices and that arena, persisting
// across regions (a block staged in one region is still arena-resident
// in the next, as in the simulated hierarchy). The shared-level modes
// add the Team-wide SharedArena between memory and the core arenas;
// its memory↔shared stream runs on the driving goroutine from the
// program's phase plan — strictly between regions in ModeShared, partly
// overlapped with the workers in ModeSharedPipelined. In ModeView
// staging is probe-only, as it was before packed storage existed.
type Executor struct {
	team         *Team
	operands     *matrix.Operands // nil while unbound (Rebind)
	q            int              // the tile size of every binding and arena
	probe        *schedule.Probe
	mode         Mode
	arenaBlocks  int
	sharedBlocks int
	arenas       []*Arena       // allocated by Run for programs that stage
	shared       []*SharedArena // one per chip; shared-level modes only, allocated with the arenas
	finished     []time.Time    // per-core finish stamps of the current region
	err          error

	// Replay provenance: ctx is the active RunContext's context (nil
	// outside a run); algorithm the running program's name; region counts
	// the executed parallel regions of the current run (-1 before the
	// first); opIdx[c] is core c's cumulative op index across the run and
	// drvIdx the driver's, the coordinates RunError and fault plans speak.
	ctx       context.Context
	algorithm string
	region    int
	opIdx     []int
	drvIdx    int

	// inject is the optional fault hook consulted at every replayed
	// operation (SetFaultInjector); integrity arms the per-line checksum
	// tripwire (SetIntegrityChecks).
	inject    faultinject.Injector
	integrity bool

	ms  LevelTraffic     // memory↔shared stream, stager/driving goroutine only
	md  []LevelTraffic   // shared↔core (or memory↔core) stream, one per worker
	icw [][]LevelTraffic // [core][home chip] inter-chip share of the MD stream

	// stageWait and computeTime split the driving goroutine's critical
	// path per Run: time spent moving blocks across the memory↔shared
	// boundary on the critical path (or waiting for the stager after the
	// workers finished) versus time inside parallel regions. Their ratio
	// is the overlap story the benchmark records report.
	stageWait   time.Duration
	computeTime time.Duration

	// comp is the compiled form of the last program Run was handed,
	// keyed by its source pointer (a Program is immutable once built), so
	// repeated Runs of the same program — the benchmark loop — lower and
	// compile it only once. SetTuning and SetStrictVerify drop it.
	comp *compiled

	// tun holds the executor's settings (see Tuning and SetTuning): the
	// kernel dispatch calls tun.Kernels, and compile reads tun.Optimize
	// and checks tun.Lookahead.
	tun Tuning

	// strictVerify runs the static schedule verifier over every program
	// before its first replay and refuses programs with findings — the
	// belt-and-suspenders mode behind SetStrictVerify (default off; the
	// registered emitters are verified statically in CI instead).
	strictVerify bool
}

// compiled is everything Run derives from a source program before its
// first replay. prog is the program actually replayed — src lowered, or
// its optimizer rewrite with rep as the ledger — and trace the trace
// prog carries, whose line IDs key the arenas' slot tables during the
// replay. staging records whether prog moves data in this mode, and
// plan phases its memory↔shared stream (shared-level modes with staging
// only; nil otherwise).
//
// chips, chipOf and homes are the chip topology the replay routes by:
// the shared-level modes split their arena per declared chip, and every
// line lives in its home chip's arena; the other modes have no shared
// level, hence one flat chip.
type compiled struct {
	src, prog *schedule.Program
	trace     *schedule.Trace
	rep       schedule.OptimizeReport
	staging   bool
	plan      *schedule.PipelinePlan
	chips     int
	chipOf    []int // core → chip (blocked partition)
	homes     []int // line ID → home chip (the trace's Homes)
}

// NewExecutor binds a backend to a team and a product triple. probe may
// be nil. coreBlocks is the per-core arena capacity in tiles of Q×Q
// values, Q the triple's tile size — pass the declared machine's CD, as
// Multiply does. sharedBlocks is the shared arena's capacity (the
// machine's CS), used only by ModeShared; ModeView ignores both. Arenas
// are allocated by Run, and only for programs that actually stage, so
// demand-driven schedules pay nothing for the capability.
func NewExecutor(team *Team, t *matrix.Triple, probe *schedule.Probe, mode Mode, coreBlocks, sharedBlocks int) (*Executor, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	ops, err := t.Operands()
	if err != nil {
		return nil, err
	}
	return NewExecutorOperands(team, ops, probe, mode, coreBlocks, sharedBlocks)
}

// NewExecutorOperands binds a backend to an arbitrary operand binding —
// the general form behind NewExecutor, for schedules that are not a
// product of three matrices (blocked LU binds the single matrix it
// factors). The schedule's lines must resolve within the binding; an
// unbound operand fails at execution, exactly as an out-of-discipline
// access does.
func NewExecutorOperands(team *Team, operands *matrix.Operands, probe *schedule.Probe, mode Mode, coreBlocks, sharedBlocks int) (*Executor, error) {
	if operands == nil {
		return nil, errors.New("parallel: nil operand binding")
	}
	ex := &Executor{
		team:         team,
		operands:     operands,
		q:            operands.Q(),
		probe:        probe,
		mode:         mode,
		arenaBlocks:  coreBlocks,
		sharedBlocks: sharedBlocks,
		finished:     make([]time.Time, team.Size()),
		opIdx:        make([]int, team.Size()),
		md:           make([]LevelTraffic, team.Size()),
	}
	switch mode {
	case ModePacked, ModeShared, ModeSharedPipelined:
		if coreBlocks <= 0 {
			return nil, fmt.Errorf("parallel: %v executor needs a positive core arena capacity, got %d blocks", mode, coreBlocks)
		}
		if mode.SharedLevel() && sharedBlocks <= 0 {
			return nil, fmt.Errorf("parallel: shared executor needs a positive shared arena capacity, got %d blocks", sharedBlocks)
		}
	case ModeView:
	default:
		return nil, fmt.Errorf("parallel: unknown executor mode %v", mode)
	}
	return ex, nil
}

// Rebind swaps the executor's operand binding for ops and keeps
// everything else: the compiled program, the phase plan and the
// arenas. The next Run of the program compiled last replays over the
// new matrices without compiling or allocating anything. ops must have
// the tile size the executor was built with. nil unbinds, so an
// executor kept between runs does not keep its last matrices
// reachable; a Run with nothing bound is rejected before it executes.
// A quarantined executor refuses to rebind: Reset it first.
func (ex *Executor) Rebind(ops *matrix.Operands) error {
	if ex.err != nil {
		return fmt.Errorf("parallel: executor quarantined by an earlier failure (%v); Reset it before rebinding", ex.err)
	}
	if ops != nil && ops.Q() != ex.q {
		return fmt.Errorf("parallel: cannot rebind an executor of tile size %d to operands of tile size %d", ex.q, ops.Q())
	}
	ex.operands = ops
	return nil
}

// Err returns the first execution error, if any.
//
// The executor's error state machine has three states:
//
//	clean ──(replay failure)──▶ quarantined ──(Reset)──▶ clean
//
// Errors are sticky: the first failure inside a replay — a kernel
// error, a staging-discipline violation, a worker panic, an injected
// fault, a cancelled context — quarantines the executor. While
// quarantined, every remaining operation of the failing run is a no-op
// (the workers unwind without deadlock), Err returns the failure (a
// *RunError with full provenance), and any further Run or RunContext
// fails fast without executing anything. Reset returns the executor to
// clean (and with it Err to nil); a successful Run after Reset leaves
// no trace of the previous failure. Pre-flight rejections — a nil
// program, a core-count mismatch, no operands bound, a chip count that
// does not split the team, a stream that does not lower, a working set
// that overflows the declared resources, a phase plan that cannot
// prove inclusion — are returned without entering quarantine: nothing
// executed, so the executor stays clean.
func (ex *Executor) Err() error { return ex.err }

func (ex *Executor) fail(err error) {
	if ex.err == nil && err != nil {
		ex.err = err
	}
}

// Traffic returns the physical data movement of the most recent Run,
// per hierarchy level. The shared-level stream is counted on the
// driving goroutine and the per-core streams are summed after the
// workers finished, so the totals are exact, not sampled.
func (ex *Executor) Traffic() Traffic {
	t := Traffic{MS: ex.ms}
	for i := range ex.md {
		t.MD.add(ex.md[i])
	}
	for c := range ex.icw {
		for h := range ex.icw[c] {
			t.IC.add(ex.icw[c][h])
		}
	}
	return t
}

// CoreTraffic returns core c's share of the most recent Run's MD
// stream (for load-balance analysis; the simulator's per-core MD(c)
// counts correspond to StageBlocks).
func (ex *Executor) CoreTraffic(c int) LevelTraffic { return ex.md[c] }

// Chips returns the chip count of the most recently compiled program's
// topology (1 until a program has compiled).
func (ex *Executor) Chips() int {
	if ex.comp == nil {
		return 1
	}
	return ex.comp.chips
}

// InterChipPairs returns the most recent Run's inter-chip traffic as a
// [home][user] matrix: entry (h, u) counts the blocks that moved
// between chip h's shared arena and the core arenas of chip u — stages
// downward (h→u), write-backs upward (u→h). The diagonal is zero by
// construction.
func (ex *Executor) InterChipPairs() [][]LevelTraffic {
	chips := ex.Chips()
	pairs := make([][]LevelTraffic, chips)
	for h := range pairs {
		pairs[h] = make([]LevelTraffic, chips)
	}
	if ex.comp == nil {
		return pairs
	}
	for c := range ex.icw {
		for h := range ex.icw[c] {
			pairs[h][ex.comp.chipOf[c]].add(ex.icw[c][h])
		}
	}
	return pairs
}

// StageWait returns the time the most recent Run's driving goroutine
// spent on memory↔shared staging that could not be hidden behind
// compute: the phase plan's barrier and tail ops, plus each region's
// join tail — the time from the last worker's finish to the join, which
// is overlapped staging that outlasted its region in
// ModeSharedPipelined and the join's own hand-back in ModeShared
// (hoisted and retired ops fully covered by worker compute cost nothing
// here). The traffic moved is identical in both modes; this is the
// critical-path share of it.
func (ex *Executor) StageWait() time.Duration { return ex.stageWait }

// ComputeTime returns the wall-time the most recent Run spent inside
// parallel regions (team barriers included).
func (ex *Executor) ComputeTime() time.Duration { return ex.computeTime }

// Plan returns the phase plan of the most recently compiled program,
// or nil when it has none (ModePacked, ModeView, or a program that
// stages nothing): in ModeSharedPipelined the overlap the depth-1
// double buffer found, in ModeShared the schedule.PlanSerial plan with
// every shared op a barrier op.
func (ex *Executor) Plan() *schedule.PipelinePlan {
	if ex.comp == nil {
		return nil
	}
	return ex.comp.plan
}

// OptimizeReport returns the optimizer's ledger for the most recently
// compiled program (zero when the optimizer tunable is off, the mode is
// ModeView, the program is demand-driven, or nothing has run yet). The
// report's counts are in blocks; the executed byte difference shows up
// directly in Traffic().MS / MD.
func (ex *Executor) OptimizeReport() schedule.OptimizeReport {
	if ex.comp == nil {
		return schedule.OptimizeReport{}
	}
	return ex.comp.rep
}

// driverOp performs one memory↔shared transfer of the phase plan on the
// driving goroutine, between regions or — a pipelined prefetch or
// retire — while the workers compute. A stage packs line op.Line from
// the operand matrices into its home chip's shared arena; an unstage
// releases it there, writing a dirty copy back to memory. Both count on
// the MS stream. An unstage does not re-check core-arena residency — a
// pipelined retire runs concurrently with the workers, so the check
// would race them — but relies on the phase planner having proven
// inclusion statically for every plan. Every driver op is a
// cancellation point (the context is polled before the transfer, so
// staging loops unwind promptly) and an injection point; failures —
// organic, injected, or a panic recovered right here — carry the driver
// op's provenance, with the zero kernel, since a transfer applies none.
func (ex *Executor) driverOp(op schedule.SharedOp) (err error) {
	if err := ex.ctxErr(); err != nil {
		return err
	}
	l := ex.comp.trace.Lines[op.Line]
	ref := schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: ex.drvIdx}
	ex.drvIdx++
	site := faultinject.StageShared
	if op.Unstage {
		site = faultinject.UnstageShared
	}
	defer func() {
		if r := recover(); r != nil {
			err = &RunError{
				Algorithm: ex.algorithm, Op: ref,
				Site: site, Line: l, HasOp: true,
				Panicked: true, PanicValue: r, Stack: debug.Stack(),
			}
		} else if err != nil {
			err = ex.opError(ref, site, 0, l, err)
		}
	}()
	act, err := ex.injectAt(faultinject.Point{Op: ref, Kind: site, Line: l})
	if err != nil {
		return err
	}
	mem, err := ex.operands.Block(l)
	if err != nil {
		return err
	}
	k := idKey(op.Line, l)
	sa := ex.shared[ex.comp.homes[op.Line]]
	if op.Unstage {
		values, dirty, err := sa.unstage(k, mem)
		if err != nil {
			return err
		}
		if dirty {
			ex.ms.writeBack(values)
		}
		return nil
	}
	values, err := sa.stage(k, mem)
	if err != nil {
		return err
	}
	if act.Kind == faultinject.ActCorrupt {
		sa.corrupt(k, act.Bit)
	}
	ex.ms.stage(values)
	return nil
}

// replay is the executor's one region loop: it walks the compiled
// trace in program order, in every mode. A driver step feeds the probe
// its shared access and moves no data — in the shared-level modes the
// physical memory↔shared transfers run from the phase plan, and the
// other modes have no shared level between the arenas and memory. A
// region step feeds the probe every core's accesses, then runs the
// region's per-core op slices concurrently on the team — under the
// region's phase-plan entry when the program has a plan (see
// phasedRegion), with a plain team barrier otherwise. Regions that do
// no work in this mode skip the barrier: unnumbered ones everywhere,
// and in ModeView, which moves no staging data, those without a kernel
// (its regions are numbered among themselves). The schedules guarantee
// that cores write disjoint C blocks within a region — and that arena
// residency of a C block never migrates between cores across regions —
// so no further synchronisation is needed.
func (ex *Executor) replay(c *compiled) {
	for i := range c.trace.Steps {
		if ex.err != nil {
			return
		}
		s := &c.trace.Steps[i]
		if s.Cores == nil {
			if !s.Shared.Unstage && ex.probe != nil && ex.probe.SharedAccess != nil {
				ex.probe.SharedAccess(c.trace.Lines[s.Shared.Line])
			}
			continue
		}
		ex.feedProbe(s.Cores, c.trace.Lines)
		region := s.Region
		if region < 0 {
			continue
		}
		if ex.mode == ModeView {
			if !appliesKernel(s.Cores) {
				continue
			}
			region = ex.region + 1
		}
		ex.region = region
		// Region barriers are cancellation points: the context is polled
		// once per region, never inside worker replay.
		if err := ex.ctxErr(); err != nil {
			ex.fail(err)
			return
		}
		if c.plan != nil {
			ex.phasedRegion(&c.plan.Regions[region], s.Cores)
			continue
		}
		start := time.Now()
		ex.fail(ex.team.Run(func(core int) error { return ex.replayOps(core, region, s.Cores[core]) }))
		ex.computeTime += time.Since(start)
	}
	if c.plan != nil {
		ex.runTail(c.plan)
	}
}

// feedProbe feeds the probe one region's accesses, core by core in each
// core's program order, exactly as the simulator records them: a Stage
// reads its line, a kernel reads its sources in order and then writes
// its destination, raw accesses pass through, and an Unstage stays
// invisible. lines is the trace's line table.
func (ex *Executor) feedProbe(cores [][]schedule.Op, lines []schedule.Line) {
	p := ex.probe
	if p == nil || p.CoreAccess == nil {
		return
	}
	var srcs [2]schedule.Line
	for c, ops := range cores {
		read := func(l schedule.Line) { p.CoreAccess(c, l, false) }
		write := func(l schedule.Line) { p.CoreAccess(c, l, true) }
		for i := range ops {
			switch op := &ops[i]; op.Kind {
			case schedule.OpStage, schedule.OpRead:
				read(lines[op.Line])
			case schedule.OpWrite:
				write(lines[op.Line])
			case schedule.OpApply:
				ids := op.Sources()
				for k, id := range ids {
					srcs[k] = lines[id]
				}
				op.Kernel.Accesses(lines[op.Line], srcs[:len(ids)], read, write)
			}
		}
	}
}

// appliesKernel reports whether any core of a region applies a kernel.
func appliesKernel(cores [][]schedule.Op) bool {
	return slices.ContainsFunc(cores, func(ops []schedule.Op) bool {
		return slices.ContainsFunc(ops, func(op schedule.Op) bool { return op.Kind == schedule.OpApply })
	})
}

// siteOf maps a trace op to its injection-point kind.
func siteOf(op *schedule.Op) faultinject.OpKind {
	switch op.Kind {
	case schedule.OpStage:
		return faultinject.Stage
	case schedule.OpUnstage:
		return faultinject.Unstage
	default:
		return faultinject.Apply
	}
}

// replayOps executes core c's op slice of one region. Raw Read/Write
// accesses are probe-only and carry no index, as are staging ops in
// ModeView, which moves no staging data. The arena applies only when
// the *current* program stages: a reused Executor may hold arenas from
// an earlier staged Run while replaying a demand-driven program, whose
// computes must take the strided path.
//
// Every op is an injection point and carries provenance: failures come
// back as *RunError with the (region, core, index) coordinate, the op
// site, kernel and line; a panic — a kernel's or an injected one — is
// recovered here with the in-flight op's identity, so the Team's
// recover is only ever a backstop for panics outside op replay.
func (ex *Executor) replayOps(c, region int, ops []schedule.Op) (err error) {
	var ar *Arena
	if ex.comp.staging {
		ar = ex.arenas[c]
	}
	lines := ex.comp.trace.Lines
	md := &ex.md[c]
	idx := ex.opIdx[c]
	var cur *schedule.Op
	var site faultinject.OpKind
	defer func() {
		ex.opIdx[c] = idx
		if r := recover(); r != nil {
			re := &RunError{
				Algorithm:  ex.algorithm,
				Op:         schedule.OpRef{Region: region, Core: c, Index: idx},
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			}
			if cur != nil {
				re.Site, re.Kernel, re.Line, re.HasOp = site, cur.Kernel, lines[cur.Line], true
			}
			err = re
		}
	}()
	for i := range ops {
		op := &ops[i]
		switch op.Kind {
		case schedule.OpRead, schedule.OpWrite:
			continue
		case schedule.OpStage, schedule.OpUnstage:
			if ex.mode == ModeView {
				continue
			}
		}
		cur, site = op, siteOf(op)
		ref := schedule.OpRef{Region: region, Core: c, Index: idx}
		l := lines[op.Line]
		act, ierr := ex.injectAt(faultinject.Point{Op: ref, Kind: site, Kernel: op.Kernel, Line: l})
		if ierr != nil {
			return ex.opError(ref, site, op.Kernel, l, ierr)
		}
		if oerr := ex.replayOne(c, ar, md, op, l, act); oerr != nil {
			return ex.opError(ref, site, op.Kernel, l, oerr)
		}
		idx++
	}
	return nil
}

// replayOne executes a single trace op on core c; l is the line of the
// op's ID. act carries the already-resolved injection at this point;
// the only action left to apply here is ActCorrupt, which flips a bit
// of the freshly staged (or freshly written) arena copy after the op
// completed. Arena slots are keyed by the op's line ID throughout.
func (ex *Executor) replayOne(c int, ar *Arena, md *LevelTraffic, op *schedule.Op, l schedule.Line, act faultinject.Action) error {
	k := idKey(op.Line, l)
	switch op.Kind {
	case schedule.OpStage, schedule.OpUnstage:
		if ar == nil {
			// Staging ops reach replay only through Run, which
			// allocates arenas for every program that stages.
			return fmt.Errorf("parallel: staging op %v outside a validated Run", l)
		}
		if op.Kind == schedule.OpUnstage {
			rows, cols, data, dirty, err := ar.releaseKey(k)
			if err != nil || !dirty {
				return err
			}
			return ex.mergeUp(c, k, rows, cols, data)
		}
		if ex.mode.SharedLevel() {
			// The core arena fills from the block's home chip's shared
			// arena, never from the matrices. A foreign home makes the
			// same transfer an inter-chip one: counted on MD as always,
			// plus the interconnect stream.
			home := ex.comp.homes[op.Line]
			values, err := ex.shared[home].refill(ar, k)
			if err != nil {
				return err
			}
			md.stage(values)
			if home != ex.comp.chipOf[c] {
				ex.icw[c][home].stage(values)
			}
		} else {
			src, err := ex.operands.Block(l)
			if err != nil {
				return err
			}
			if err := ar.stage(k, src); err != nil {
				return err
			}
			md.stage(src.Rows() * src.Cols())
		}
		if act.Kind == faultinject.ActCorrupt {
			if slot := ar.tileKey(k); slot != nil {
				corruptData(slot.data, act.Bit)
			}
		}
		return nil
	case schedule.OpApply:
		if err := ex.apply(ar, op); err != nil {
			return err
		}
		if act.Kind == faultinject.ActCorrupt && ar != nil {
			if slot := ar.tileKey(k); slot != nil {
				corruptData(slot.data, act.Bit)
			}
		}
		return nil
	}
	return nil
}

// mergeUp moves a dirty rows×cols tile that core c's arena released
// under k one level up — the one path for a tile an Unstage released
// and for one the end-of-run drain found still resident. In the
// shared-level modes it merges into the home chip's shared copy, as
// EvictDistributed merges under IDEAL, and the shared level owns the
// eventual write-back to memory; a foreign home sends the merge over
// the interconnect. In ModePacked it writes the tile back to the
// operand matrices. Either way it is one MD write-back.
func (ex *Executor) mergeUp(c int, k slotKey, rows, cols int, data []float64) error {
	if ex.mode.SharedLevel() {
		home := ex.comp.homes[k.id]
		if err := ex.shared[home].absorb(k, rows, cols, data); err != nil {
			return err
		}
		if home != ex.comp.chipOf[c] {
			ex.icw[c][home].writeBack(rows * cols)
		}
	} else if err := ex.unpack(k.line, data); err != nil {
		return err
	}
	ex.md[c].writeBack(rows * cols)
	return nil
}

// unpack writes a packed image of line l back to its tile in the
// operand matrices.
func (ex *Executor) unpack(l schedule.Line, data []float64) error {
	dst, err := ex.operands.Block(l)
	if err != nil {
		return err
	}
	return matrix.Unpack(dst, data)
}

// apply dispatches one typed kernel application. With an arena present
// (staged schedules) every operand must be arena-resident — mirroring
// the IDEAL cache, where referencing a non-resident line is an error —
// and the kernel runs on the contiguous packed copies, found by line
// ID. Demand-driven schedules never stage, so Run allocates them no
// arena (ar == nil) and the kernel reads the tile views directly; both
// paths run the very same arithmetic, so packed-vs-view ratios measure
// data layout, never loop shape, and the two results are bitwise
// identical.
func (ex *Executor) apply(ar *Arena, op *schedule.Op) error {
	lines := ex.comp.trace.Lines
	var dest *matrix.Dense
	var srcs [2]*matrix.Dense
	if ar != nil {
		sd := ar.tileKey(idKey(op.Line, lines[op.Line]))
		if sd == nil {
			return fmt.Errorf("parallel: %v on non-resident destination %v", op.Kernel, lines[op.Line])
		}
		dest = sd.hdr
		sd.dirty = true
		for i, src := range op.Sources() {
			ss := ar.tileKey(idKey(src, lines[src]))
			if ss == nil {
				return fmt.Errorf("parallel: %v of %v with non-resident source %v", op.Kernel, lines[op.Line], lines[src])
			}
			srcs[i] = ss.hdr
		}
	} else {
		var err error
		if dest, err = ex.operands.Block(lines[op.Line]); err != nil {
			return err
		}
		for i, src := range op.Sources() {
			if srcs[i], err = ex.operands.Block(lines[src]); err != nil {
				return err
			}
		}
	}
	switch op.Kernel {
	case schedule.MulAdd:
		return ex.tun.Kernels.MulAdd(dest, srcs[0], srcs[1])
	case schedule.MulSub:
		return ex.tun.Kernels.MulSub(dest, srcs[0], srcs[1])
	case schedule.FactorTile:
		return ex.tun.Kernels.FactorTile(dest)
	case schedule.TrsmLowerLeftUnit:
		return ex.tun.Kernels.TrsmLowerLeftUnit(srcs[0], dest)
	case schedule.TrsmUpperRight:
		return ex.tun.Kernels.TrsmUpperRight(srcs[0], dest)
	default:
		return fmt.Errorf("parallel: no executor dispatch for kernel %v", op.Kernel)
	}
}

// Run replays a complete program and reports the first error. The
// first Run of a program lowers it — the one call of its Body — and
// compiles the trace; later Runs of the same program replay the
// compiled trace without calling the Body. In the staging modes the
// program's measured working set is validated against the resources it
// declares before anything executes, and any tiles a
// sloppy schedule left staged are flushed back afterwards (schedules
// are expected to unstage everything themselves; the simulated
// hierarchy has the same end-of-run Flush). The flush drains the levels
// top-down — core arenas merge into the shared arena before the shared
// arena writes to memory — so a stale shared copy can never overwrite a
// fresher core result, and a reused Executor always starts its next Run
// from clean arenas.
//
// ModePacked validates only the per-core level (WorkingSet.FitsCore):
// the arenas are the one cache level it materialises, while the shared
// level stays a probe-only hint (some emitters overclaim CS by a block
// or two on tiny machines, and rejecting execution on a resource that
// is never allocated would regress workloads that run fine). The
// shared-level modes materialise both levels and therefore validate
// both (Fits) — there a shared overclaim is a real overflow of the
// CS-sized arena and must be rejected up front. The validation is a
// walk of the compiled trace, paid once per program.
//
// Run is RunContext with a background context; see RunContext for the
// cancellation and failure contract.
func (ex *Executor) Run(prog *schedule.Program) error {
	return ex.RunContext(context.Background(), prog)
}

// RunContext replays a complete program under ctx. Cancellation and
// deadlines are honoured at the run's natural barriers — before each
// parallel region, and before every memory↔shared staging transfer of
// the driving goroutine (serial and pipelined alike) — never inside a
// worker's kernel, so a cancelled run always leaves whole regions
// either fully executed or not started. A cancelled run fails with a
// *RunError unwrapping to ctx.Err() and quarantines the executor like
// any other replay failure; Reset returns it to service.
//
// A quarantined executor (Err() != nil) fails fast here without
// executing anything. Every failure that occurs inside the replay —
// kernel errors, staging-discipline violations, injected faults,
// integrity-check trips, worker or driver panics — is returned as a
// *RunError carrying the failing operation's provenance. Panics
// anywhere in the run (including the program's own Body, which runs
// when the program is lowered) are recovered; RunContext never lets one
// escape.
func (ex *Executor) RunContext(ctx context.Context, prog *schedule.Program) (err error) {
	if ex.err != nil {
		return fmt.Errorf("parallel: executor quarantined by an earlier failure (%v); Reset it before running again", ex.err)
	}
	if prog == nil {
		return errors.New("parallel: Run of a nil program")
	}
	ex.ctx = ctx
	ex.algorithm = prog.Algorithm
	ex.region = -1
	clear(ex.opIdx)
	ex.drvIdx = 0
	defer func() {
		ex.ctx = nil
		if r := recover(); r != nil {
			// Backstop for panics outside op replay (the emitter's Body,
			// validation plumbing): the op-level recovers in replayOps and
			// driverOp carry precise provenance and never re-panic, so all
			// that is known here is the region.
			ex.fail(&RunError{
				Algorithm:  ex.algorithm,
				Op:         schedule.OpRef{Region: ex.region, Core: schedule.DriverCore, Index: -1},
				Panicked:   true,
				PanicValue: r,
				Stack:      debug.Stack(),
			})
			err = ex.err
		}
	}()
	return ex.execute(prog)
}

// compile derives src's compiled form, or returns the cached one when
// src is the program compiled last. In order: the chip topology, which
// in the shared-level modes follows src's declared resources and must
// split the team evenly; the one lowering of src — a stream that does
// not lower is rejected here — then the optimizer rewrite of its trace
// (staged programs, with the Optimize tunable on), so strict
// verification, validation, planning and replay all see the stream
// that actually runs; then the strict verifier gate; then, for
// staged programs, the measured working set validated against the
// resources the program declares and the executor's arena capacities,
// and in the shared-level modes the phase plan: the depth-1
// schedule.PlanPipelineDepth in ModeSharedPipelined, whose Tuning must
// ask for Lookahead 0 or 1, and schedule.PlanSerial in ModeShared.
// Both planner entry points prove the inclusion discipline and the
// footprint statically, before anything executes. Every step after
// the lowering reads the trace the compiled program carries. (Run's
// doc explains why ModePacked validates the core level only.)
func (ex *Executor) compile(src *schedule.Program) (*compiled, error) {
	if ex.comp != nil && ex.comp.src == src {
		return ex.comp, nil
	}
	ex.comp = nil
	c := &compiled{src: src, chips: 1, chipOf: make([]int, ex.team.Size())}
	if ex.mode.SharedLevel() {
		c.chips = src.Resources.ChipCount()
		if c.chips > ex.team.Size() || ex.team.Size()%c.chips != 0 {
			return nil, fmt.Errorf("parallel: program %q declares %d chips, which cannot split %d cores evenly",
				src.Algorithm, c.chips, ex.team.Size())
		}
		for core := range c.chipOf {
			c.chipOf[core] = src.ChipOfCore(core)
		}
	}
	if ex.mode == ModeSharedPipelined && ex.tun.Lookahead != 0 && ex.tun.Lookahead != 1 {
		return nil, fmt.Errorf("parallel: %v plans lookahead depth 1 only, got Tuning.Lookahead %d", ex.mode, ex.tun.Lookahead)
	}
	prog, err := src.Lowered()
	if err != nil {
		return nil, err
	}
	staged := ex.mode != ModeView && !src.DemandDriven
	if staged && ex.tun.Optimize {
		opt, rep, err := schedule.Optimize(prog, schedule.OptimizeOptions{})
		if err != nil {
			return nil, fmt.Errorf("parallel: program %q: optimizer: %w", src.Algorithm, err)
		}
		prog, c.rep = opt, rep
	}
	c.prog = prog
	if c.trace, err = prog.Lower(); err != nil {
		return nil, err
	}
	c.homes = c.trace.Homes
	if err := ex.strictVerifyCheck(prog); err != nil {
		return nil, err
	}
	if staged {
		ws, err := schedule.Measure(prog)
		if err != nil {
			return nil, err
		}
		if ex.mode.SharedLevel() {
			if err := ws.Fits(prog.Resources); err != nil {
				return nil, fmt.Errorf("parallel: program %q: %w", prog.Algorithm, err)
			}
			if ws.SharedPeak > ex.sharedBlocks {
				return nil, fmt.Errorf("parallel: program %q needs %d shared arena blocks, have %d",
					prog.Algorithm, ws.SharedPeak, ex.sharedBlocks)
			}
		} else if err := ws.FitsCore(prog.Resources); err != nil {
			return nil, fmt.Errorf("parallel: program %q: %w", prog.Algorithm, err)
		}
		if ws.CorePeak > ex.arenaBlocks {
			return nil, fmt.Errorf("parallel: program %q needs %d arena blocks per core, have %d",
				prog.Algorithm, ws.CorePeak, ex.arenaBlocks)
		}
		c.staging = ws.Stages > 0 || (ex.mode.SharedLevel() && ws.SharedStages > 0)
	}
	if c.staging && ex.mode.SharedLevel() {
		var err error
		if ex.mode == ModeSharedPipelined {
			c.plan, err = schedule.PlanPipelineDepth(prog, ex.sharedBlocks, 1)
		} else {
			c.plan, err = schedule.PlanSerial(prog, ex.sharedBlocks)
		}
		if err != nil {
			return nil, fmt.Errorf("parallel: program %q: %w", prog.Algorithm, err)
		}
	}
	ex.comp = c
	return c, nil
}

// execute is the body of RunContext: compilation, arena setup, replay
// and the end-of-run drain. The counters are zeroed before compile, so a
// pre-flight rejection reports no traffic.
func (ex *Executor) execute(src *schedule.Program) error {
	if src.Cores != ex.team.Size() {
		return fmt.Errorf("parallel: program %q wants %d cores, team has %d",
			src.Algorithm, src.Cores, ex.team.Size())
	}
	if ex.operands == nil {
		return fmt.Errorf("parallel: program %q run with no operands bound", src.Algorithm)
	}
	ex.ms = LevelTraffic{}
	clear(ex.md)
	for c := range ex.icw {
		clear(ex.icw[c])
	}
	ex.stageWait = 0
	ex.computeTime = 0
	comp, err := ex.compile(src)
	if err != nil {
		return err
	}
	if len(ex.icw) == 0 || len(ex.icw[0]) != comp.chips {
		ex.icw = make([][]LevelTraffic, ex.team.Size())
		for c := range ex.icw {
			ex.icw[c] = make([]LevelTraffic, comp.chips)
		}
	}
	if comp.staging {
		if ex.arenas == nil {
			ex.arenas = make([]*Arena, ex.team.Size())
			for c := range ex.arenas {
				a, err := NewArena(ex.arenaBlocks, ex.q)
				if err != nil {
					return err
				}
				ex.arenas[c] = a
			}
		}
		if ex.mode.SharedLevel() && len(ex.shared) != comp.chips {
			// One CS-sized arena per chip. A reused executor whose new
			// program declares a different topology reallocates; the old
			// arenas were drained empty at the end of their last Run.
			shared := make([]*SharedArena, comp.chips)
			for i := range shared {
				sa, err := NewSharedArena(ex.sharedBlocks, ex.q)
				if err != nil {
					return err
				}
				shared[i] = sa
			}
			ex.shared = shared
		}
	}
	// Arm (or disarm) the checksum tripwire on every arena the run will
	// touch, and bind the arenas' slot tables to the trace's line IDs;
	// arenas persist across Runs and programs, so both are re-applied
	// here rather than only at allocation. Every arena is empty here:
	// the last Run drained it, or Reset discarded it.
	for _, ar := range ex.arenas {
		ar.verify = ex.integrity
		ar.bind(len(comp.trace.Lines))
	}
	for _, sa := range ex.shared {
		sa.setVerify(ex.integrity)
		sa.bind(len(comp.trace.Lines))
	}
	ex.replay(comp)
	// Top-down: every dirty core tile merges up first, then the shared
	// arenas write to memory — the reverse order would let a stale
	// shared copy overwrite a fresher core result.
	for c, ar := range ex.arenas {
		if ex.err != nil {
			break
		}
		_, err := ar.drain(func(s *arenaSlot) error { return ex.mergeUp(c, s.key, s.rows, s.cols, s.data) })
		ex.fail(err)
	}
	for _, sa := range ex.shared {
		if ex.err != nil {
			break
		}
		_, err := sa.Drain(func(l schedule.Line, rows, cols int, data []float64) error {
			if err := ex.unpack(l, data); err != nil {
				return err
			}
			ex.ms.writeBack(rows * cols)
			return nil
		})
		ex.fail(err)
	}
	return ex.err
}
