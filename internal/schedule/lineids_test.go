package schedule_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algo"
	"repro/internal/lu"
	"repro/internal/machine"
	"repro/internal/schedule"
)

// firstSight is a recording backend that numbers lines with a map, in
// the order Lower meets them: driver ops in program order, each region
// core after core, a kernel's destination before its sources.
type firstSight struct {
	cores int
	ids   map[schedule.Line]schedule.LineID
	lines []schedule.Line
}

func (f *firstSight) see(l schedule.Line) {
	if _, ok := f.ids[l]; !ok {
		f.ids[l] = schedule.LineID(len(f.lines))
		f.lines = append(f.lines, l)
	}
}

func (f *firstSight) StageShared(l schedule.Line)   { f.see(l) }
func (f *firstSight) UnstageShared(l schedule.Line) { f.see(l) }

func (f *firstSight) Parallel(body func(core int, ops schedule.CoreSink)) {
	for c := 0; c < f.cores; c++ {
		body(c, f)
	}
}

func (f *firstSight) Stage(l schedule.Line)   { f.see(l) }
func (f *firstSight) Unstage(l schedule.Line) { f.see(l) }
func (f *firstSight) Read(l schedule.Line)    { f.see(l) }
func (f *firstSight) Write(l schedule.Line)   { f.see(l) }

func (f *firstSight) Apply(k schedule.Kernel, dest schedule.Line, srcs ...schedule.Line) {
	f.see(dest)
	for _, s := range srcs {
		f.see(s)
	}
}

func (f *firstSight) Compute(i, j, k int) {
	f.Apply(schedule.MulAdd, schedule.LineC(i, j), schedule.LineA(i, k), schedule.LineB(k, j))
}

// TestLowerKeepsLineIDs pins Lower's numbering to a first-sight
// map[Line]LineID for every registered product program and blocked LU,
// on aligned and ragged block grids, at one and two chips: Trace.Lines
// lists the lines in the order the map numbers them, and every op's IDs
// name the lines the map gives them.
func TestLowerKeepsLineIDs(t *testing.T) {
	var progs []*schedule.Program
	for _, chips := range []int{1, 2} {
		mach := machine.Machine{P: 4, CS: 157, CD: 7, Chips: chips,
			SigmaS: machine.DefaultSigmaS, SigmaD: machine.DefaultSigmaD, Q: 8}
		for _, a := range algo.Extended() {
			for _, w := range []algo.Workload{algo.Square(8), {M: 7, N: 9, Z: 5}} {
				prog, err := a.Schedule(mach, w)
				if err != nil {
					t.Fatalf("%s chips=%d %+v: %v", a.Name(), chips, w, err)
				}
				progs = append(progs, prog)
			}
		}
		luMach := lu.MachineFor(2, 32)
		luMach.Chips = chips
		for _, nb := range []int{8, 7} {
			prog, err := lu.Program(luMach, nb)
			if err != nil {
				t.Fatalf("LU chips=%d nb=%d: %v", chips, nb, err)
			}
			progs = append(progs, prog)
		}
	}
	for i, prog := range progs {
		name := fmt.Sprintf("%d/%s", i, prog.Algorithm)
		ref := &firstSight{cores: prog.Cores, ids: map[schedule.Line]schedule.LineID{}}
		if err := prog.Emit(ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := prog.Lower()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(tr.Lines, ref.lines) {
			t.Fatalf("%s: Trace.Lines differs from the first-sight numbering (%d vs %d lines)", name, len(tr.Lines), len(ref.lines))
		}
		for _, st := range tr.Steps {
			if st.Cores == nil {
				if want := ref.ids[tr.Lines[st.Shared.Line]]; st.Shared.Line != want {
					t.Fatalf("%s: driver op ID %d, want %d", name, st.Shared.Line, want)
				}
				continue
			}
			for _, ops := range st.Cores {
				for _, op := range ops {
					ids := append([]schedule.LineID{op.Line}, op.Sources()...)
					for _, id := range ids {
						if int(id) >= len(tr.Lines) || ref.ids[tr.Lines[id]] != id {
							t.Fatalf("%s: op %+v names ID %d off the first-sight numbering", name, op, id)
						}
					}
				}
			}
		}
	}
}
