package schedule

import (
	"fmt"
	"slices"

	"repro/internal/matrix"
)

// This file is the lowered form of the IR: a Program's Body recorded
// once into a flat Trace that the compile passes and the executor walk
// directly. Lower is the only code that records a Body: it numbers
// every line the program touches with a dense LineID, in first-sight
// order, through a matrix.BlockIndex — a grid of IDs per matrix that
// hashes only lines with negative or far-out coordinates — and
// everything downstream of it indexes slices by ID: the optimizer's and
// the planners' per-line state, Measure's residency sets and the
// executor's arena slot tables. Trace.Lines maps each ID back to its
// line for probes, errors and the operands, and Trace.Homes caches each
// line's home chip.
//
// The simulator (internal/algo) and the verifier
// (internal/schedule/verify) keep streaming the Body, because a trace of
// the simulator's largest programs would outweigh the simulation itself,
// and because the verifier must turn malformed streams — which Lower
// rejects — into findings.

// OpKind classifies one lowered core operation.
type OpKind uint8

// The core operations of a trace, one per CoreSink method (Compute
// lowers to its MulAdd Apply).
const (
	OpStage OpKind = iota
	OpUnstage
	OpRead
	OpWrite
	OpApply
)

// LineID numbers one line of a trace. Lower interns lines densely — 0,
// 1, … in the order it first meets them — so per-line state is a slice
// indexed by ID, and Trace.Lines maps each ID back to its line. IDs are
// local to one trace: the same line may carry different IDs in two.
type LineID uint32

// Op is one lowered core operation, in 16 bytes. Line is the ID of the
// staging target, the raw access's line or the kernel's destination; an
// OpApply also carries its kernel and, inline, its Kernel.Arity()
// source IDs.
type Op struct {
	Line   LineID
	Srcs   [2]LineID
	Kind   OpKind
	Kernel Kernel
}

// Sources returns the IDs of an OpApply's kernel sources.
func (op *Op) Sources() []LineID { return op.Srcs[:op.Kernel.Arity()] }

// work reports whether the op makes its region run: staging transfers
// and kernels do, raw Read/Write accesses are probe-only.
func (op Op) work() bool { return op.Kind == OpStage || op.Kind == OpUnstage || op.Kind == OpApply }

// SharedOp is a driver op by line ID: a StageShared of Line, or an
// UnstageShared when Unstage is set.
type SharedOp struct {
	Line    LineID
	Unstage bool
}

// Step is one program-order step of a Trace: a driver op on the
// shared level, or one parallel region.
type Step struct {
	// Cores holds a region's operations, one slice per core in each
	// core's program order; it is nil for a driver step.
	Cores [][]Op
	// Region is a region's number: regions in which some core stages,
	// unstages or applies a kernel are numbered 0, 1, … in program
	// order — the numbering of OpRef, the phase plan's region list and
	// the executor's barriers. Regions of raw accesses only (or of
	// nothing) run no barrier and are -1, as are driver steps.
	Region int
	// Shared is a driver step's StageShared or UnstageShared.
	Shared SharedOp
}

// Trace is a program lowered once: its driver ops and parallel regions
// in program order, over dense line IDs. Programs returned by Optimize
// (and by Lowered) carry their trace; every other program is lowered
// afresh by each call of Lower.
type Trace struct {
	Steps []Step
	// Regions is the number of numbered regions.
	Regions int
	// Lines maps each LineID to its line, and Homes to that line's home
	// chip, resolved once through the program's HomeOf.
	Lines []Line
	Homes []int
}

// Emit replays the trace on backend b, in program order, by line.
func (t *Trace) Emit(b Backend) {
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.Cores == nil {
			if s.Shared.Unstage {
				b.UnstageShared(t.Lines[s.Shared.Line])
			} else {
				b.StageShared(t.Lines[s.Shared.Line])
			}
			continue
		}
		b.Parallel(func(core int, sink CoreSink) {
			if core < 0 || core >= len(s.Cores) {
				return
			}
			// One sources buffer per core stream: backends may run the
			// streams concurrently, and none keeps an Apply's sources.
			var srcs [2]Line
			for j := range s.Cores[core] {
				op := &s.Cores[core][j]
				line := t.Lines[op.Line]
				switch op.Kind {
				case OpStage:
					sink.Stage(line)
				case OpUnstage:
					sink.Unstage(line)
				case OpRead:
					sink.Read(line)
				case OpWrite:
					sink.Write(line)
				case OpApply:
					ids := op.Sources()
					for k, id := range ids {
						srcs[k] = t.Lines[id]
					}
					sink.Apply(op.Kernel, line, srcs[:len(ids)]...)
				}
			}
		})
	}
}

// Lower records p's Body once and returns its trace, or returns the
// trace p already carries. It rejects, naming the op, the four streams
// no trace can represent: a kernel applied to the wrong number of
// sources, an unknown kernel, a driver op emitted inside a parallel
// region, and a region opened inside another. Programs are shared, so
// Lower never caches a recording in p; keep the trace, or use Lowered.
func (p *Program) Lower() (*Trace, error) {
	if p.trace != nil {
		return p.trace, nil
	}
	if p.Body == nil {
		return nil, fmt.Errorf("schedule: program %q has no body", p.Algorithm)
	}
	cores := max(p.Cores, 0)
	l := &lowerer{cores: cores, idx: make([]int, cores)}
	p.Body(l)
	if l.err != nil {
		return nil, fmt.Errorf("schedule: program %q: %w", p.Algorithm, l.err)
	}
	l.t.Homes = make([]int, len(l.t.Lines))
	for id, line := range l.t.Lines {
		l.t.Homes[id] = p.HomeOf(line)
	}
	return &l.t, nil
}

// Lowered returns a copy of p that carries its trace: the copy's Body
// replays the trace, and Lower, Measure, the planners and Optimize read
// it instead of recording again. A program that already carries a
// trace is returned as is.
func (p *Program) Lowered() (*Program, error) {
	if p.trace != nil {
		return p, nil
	}
	t, err := p.Lower()
	if err != nil {
		return nil, err
	}
	return p.withTrace(t), nil
}

func (p *Program) withTrace(t *Trace) *Program {
	q := *p
	q.Body = t.Emit
	q.trace = t
	return &q
}

// addRegion appends a region holding cores' ops, numbering it when
// some core stages, unstages or applies a kernel.
func (t *Trace) addRegion(cores [][]Op) {
	s := Step{Cores: cores, Region: -1}
	if slices.ContainsFunc(cores, func(ops []Op) bool { return slices.ContainsFunc(ops, Op.work) }) {
		s.Region = t.Regions
		t.Regions++
	}
	t.Steps = append(t.Steps, s)
}

// lowerer is the recording backend behind Lower. Each region is
// recorded core after core into one reused scratch buffer, then copied
// into a single exactly-sized allocation the cores' slices share.
type lowerer struct {
	cores    int
	t        Trace
	ids      matrix.BlockIndex // the interning table behind t.Lines
	inRegion bool
	core     int
	idx      []int // per-core cumulative count of working ops, for error coordinates
	buf      []Op
	err      error
}

// id returns line's ID, numbering it on first sight.
func (l *lowerer) id(line Line) LineID {
	id, fresh := l.ids.ID(line)
	if fresh {
		l.t.Lines = append(l.t.Lines, line)
	}
	return LineID(id)
}

func (l *lowerer) fail(format string, args ...any) {
	if l.err == nil {
		ref := OpRef{Region: l.t.Regions, Core: l.core, Index: l.idx[l.core]}
		l.err = fmt.Errorf("%v: %s", ref, fmt.Sprintf(format, args...))
	}
}

func (l *lowerer) driver(name string, line Line, unstage bool) {
	if l.inRegion {
		l.fail("driver op inside a parallel region: %s(%v)", name, line)
		return
	}
	l.t.Steps = append(l.t.Steps, Step{Region: -1, Shared: SharedOp{Line: l.id(line), Unstage: unstage}})
}

func (l *lowerer) StageShared(line Line)   { l.driver("StageShared", line, false) }
func (l *lowerer) UnstageShared(line Line) { l.driver("UnstageShared", line, true) }

func (l *lowerer) Parallel(body func(core int, ops CoreSink)) {
	if l.inRegion {
		l.fail("nested parallel region")
		return
	}
	if l.err != nil {
		return
	}
	l.inRegion = true
	ends := make([]int, l.cores)
	l.buf = l.buf[:0]
	for c := 0; c < l.cores; c++ {
		l.core = c
		body(c, lowerSink{l})
		ends[c] = len(l.buf)
	}
	l.inRegion = false
	if l.err != nil {
		return
	}
	ops := make([]Op, len(l.buf))
	copy(ops, l.buf)
	cores := make([][]Op, l.cores)
	start := 0
	for c, end := range ends {
		cores[c] = ops[start:end:end]
		start = end
	}
	l.t.addRegion(cores)
}

func (l *lowerer) op(op Op) {
	if l.err != nil {
		return
	}
	l.buf = append(l.buf, op)
	if op.work() {
		l.idx[l.core]++
	}
}

// lowerSink records one core's operations of the region being lowered.
type lowerSink struct{ l *lowerer }

func (s lowerSink) Stage(line Line)   { s.l.op(Op{Kind: OpStage, Line: s.l.id(line)}) }
func (s lowerSink) Unstage(line Line) { s.l.op(Op{Kind: OpUnstage, Line: s.l.id(line)}) }
func (s lowerSink) Read(line Line)    { s.l.op(Op{Kind: OpRead, Line: s.l.id(line)}) }
func (s lowerSink) Write(line Line)   { s.l.op(Op{Kind: OpWrite, Line: s.l.id(line)}) }

func (s lowerSink) Apply(k Kernel, dest Line, srcs ...Line) {
	if k >= numKernels {
		s.l.fail("unknown kernel %v applied to %v", k, dest)
		return
	}
	if len(srcs) != k.Arity() {
		s.l.fail("%v applied to %d sources, want %d (destination %v)", k, len(srcs), k.Arity(), dest)
		return
	}
	op := Op{Kind: OpApply, Kernel: k, Line: s.l.id(dest)}
	for i, src := range srcs {
		op.Srcs[i] = s.l.id(src)
	}
	s.l.op(op)
}

func (s lowerSink) Compute(i, j, k int) { s.Apply(MulAdd, LineC(i, j), LineA(i, k), LineB(k, j)) }
