package cache

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// fuzzLines is the line palette of the differential fuzz: ordinary
// blocks next to the coordinates a packed uint64 key could not keep
// apart — matrix IDs of 16 and more, negative rows and columns, and
// rows of 1<<30 and beyond.
var fuzzLines = func() []Line {
	var ls []Line
	for _, m := range []matrix.MatrixID{matrix.MatA, matrix.MatB, matrix.MatC, 16, 17, 255} {
		for _, rc := range [][2]int{{0, 0}, {0, 1}, {1, 0}, {3, 2}, {-1, 0}, {0, -1}, {1 << 30, 0}, {1<<30 + 1, 7}, {70000, 1}} {
			ls = append(ls, Line{Matrix: m, Row: rc[0], Col: rc[1]})
		}
	}
	return ls
}()

// FuzzLRUHierarchyVsReference drives a slice-indexed hierarchy and the
// map-keyed reference with the same operation stream — LRU accesses
// and direct level operations, or, with ideal set, the explicit
// Load/Reference/MarkDirty/Evict protocol over one or more chips — and
// requires identical per-level counters, MS/MD, memory write-backs,
// residency (in order, for LRU), flush output, inclusion checks, errors
// and panics after every operation. shape picks p, CD, the shared
// capacity above the inclusion floor and the chip count; each op takes
// three bytes (kind, core/level/chip, line), and the stream is cut at
// maxFuzzOps, since every op is followed by a full state comparison.
func FuzzLRUHierarchyVsReference(f *testing.F) {
	f.Add(false, uint16(0x35), []byte{0, 0, 1, 3, 1, 2, 5, 0, 9, 0, 1, 20, 4, 2, 1, 0, 0, 31, 7, 4, 0, 8, 0, 40})
	f.Add(false, uint16(0x02), []byte{3, 0, 0, 0, 0, 1, 0, 0, 2, 6, 1, 0, 0, 0, 3, 9, 0, 0})
	f.Add(true, uint16(0x1f7), []byte{0, 0, 1, 2, 0, 1, 5, 0, 1, 3, 0, 1, 1, 0, 1, 0, 1, 6, 2, 17, 6, 4, 17, 6})
	f.Add(true, uint16(0x41), []byte{0, 0, 0, 2, 0, 0, 4, 0, 0, 6, 0, 0, 3, 0, 0, 1, 0, 0, 7, 0, 0})
	f.Add(false, uint16(0), []byte{3, 0, 0, 7, 1, 0, 0, 0, 1})            // the inclusion panic
	f.Add(true, uint16(0x20), []byte{0, 0, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1}) // evict a line that is not the last loaded
	f.Fuzz(func(t *testing.T, ideal bool, shape uint16, ops []byte) {
		ops = ops[:min(len(ops), 3*maxFuzzOps)]
		p := 1 + int(shape%4)
		cd := 1 + int(shape/4%4)
		slack := int(shape / 16 % 6)
		if ideal {
			chips := 1 + int(shape/96%4)
			if p%chips != 0 {
				chips = 1
			}
			fuzzIdeal(t, p, chips, (p/chips)*cd+slack, cd, ops)
			return
		}
		fuzzLRU(t, p, p*cd+slack, cd, ops)
	})
}

const maxFuzzOps = 256

// outcome runs op, turning a panic into its message.
func outcome(op func() string) (s string) {
	defer func() {
		if r := recover(); r != nil {
			s = fmt.Sprintf("panic: %v", r)
		}
	}()
	return op()
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// lruOps is what the LRU fuzz drives on a hierarchy and on one of its
// levels; both the slice-indexed caches and the reference have it.
type lruOps interface {
	Read(core int, l Line)
	Write(core int, l Line)
	SharedRead(l Line)
}

type lruLevelOps interface {
	Touch(l Line) bool
	Insert(l Line) (Evicted, bool)
	MarkDirty(l Line) bool
	IsDirty(l Line) bool
	Contains(l Line) bool
	Invalidate(l Line) (wasDirty, wasPresent bool)
	Flush() []Evicted
}

func fuzzLRU(t *testing.T, p, cs, cd int, ops []byte) {
	h, err := NewLRUHierarchy(p, cs, cd)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefLRUHierarchy(p, cs, cd)
	for i := 0; i+2 < len(ops); i += 3 {
		kind, sel, l := ops[i]%10, ops[i+1], fuzzLines[int(ops[i+2])%len(fuzzLines)]
		core := int(sel) % p
		var c lruLevelOps = h.shared
		var rc lruLevelOps = ref.shared
		if lv := int(sel) % (p + 1); lv < p {
			c, rc = h.dist[lv], ref.dist[lv]
		}
		got := outcome(func() string { return lruOp(kind, core, l, h, c) })
		want := outcome(func() string { return lruOp(kind, core, l, ref, rc) })
		if got != want {
			t.Fatalf("op %d (kind %d, sel %d, %v): got %q, reference %q", i/3, kind, sel, l, got, want)
		}
		if strings.HasPrefix(got, "panic:") {
			return
		}
		compareLRU(t, i/3, h, ref)
	}
	if got, want := h.Flush(), ref.Flush(); got != want {
		t.Fatalf("Flush wrote back %d lines, reference %d", got, want)
	}
	compareLRU(t, -1, h, ref)
}

// lruOp applies one op of the given kind to h or to its level c and
// renders what it returned.
func lruOp(kind byte, core int, l Line, h lruOps, c lruLevelOps) string {
	switch kind {
	case 0, 1, 2:
		h.Read(core, l)
	case 3, 4:
		h.Write(core, l)
	case 5:
		h.SharedRead(l)
	case 6:
		d, ok := c.Invalidate(l)
		return fmt.Sprint(d, ok)
	case 7:
		return fmt.Sprint(c.Flush())
	case 8:
		if c.Touch(l) {
			return "hit"
		}
		ev, ok := c.Insert(l)
		return fmt.Sprint(ev, ok)
	case 9:
		return fmt.Sprint(c.MarkDirty(l), c.IsDirty(l), c.Contains(l))
	}
	return ""
}

// compareLRU requires identical observable state after op step.
func compareLRU(t *testing.T, step int, h *LRUHierarchy, ref *refLRUHierarchy) {
	t.Helper()
	levels := append([]*LRU{h.shared}, h.dist...)
	refLevels := append([]*refLRU{ref.shared}, ref.dist...)
	for i, c := range levels {
		r := refLevels[i]
		if c.Stats() != r.stats {
			t.Fatalf("step %d level %d: stats %v, reference %v", step, i, c.Stats(), r.stats)
		}
		if got, want := c.Resident(), r.Resident(); !slices.Equal(got, want) {
			t.Fatalf("step %d level %d: resident %v, reference %v", step, i, got, want)
		}
		if c.Len() != len(r.table) {
			t.Fatalf("step %d level %d: Len %d, reference %d", step, i, c.Len(), len(r.table))
		}
		for _, l := range fuzzLines {
			if c.IsDirty(l) != r.IsDirty(l) || c.Contains(l) != r.Contains(l) {
				t.Fatalf("step %d level %d: %v dirty/resident state differs", step, i, l)
			}
		}
	}
	if h.MS() != ref.shared.stats.Misses || h.MemoryWriteBacks() != ref.memWB {
		t.Fatalf("step %d: MS %d WB %d, reference %d %d", step, h.MS(), h.MemoryWriteBacks(), ref.shared.stats.Misses, ref.memWB)
	}
	for c := range h.dist {
		if h.MD(c) != ref.dist[c].stats.Misses {
			t.Fatalf("step %d: MD(%d) %d, reference %d", step, c, h.MD(c), ref.dist[c].stats.Misses)
		}
	}
	if got, want := errString(h.CheckInclusion()), errString(ref.CheckInclusion()); got != want {
		t.Fatalf("step %d: CheckInclusion %q, reference %q", step, got, want)
	}
}

// idealOps is what the IDEAL fuzz drives on a hierarchy; both the
// slice-indexed caches and the reference have it.
type idealOps interface {
	LoadSharedChip(chip int, l Line) error
	EvictSharedChip(chip int, l Line) error
	LoadDistributedFrom(core, home int, l Line) error
	EvictDistributedTo(core, home int, l Line) error
	Reference(core int, l Line) error
	WriteDistributed(core int, l Line) error
	WriteShared(l Line) error
}

func fuzzIdeal(t *testing.T, p, chips, cs, cd int, ops []byte) {
	h, err := NewIdealHierarchyChips(p, chips, cs, cd)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefIdealHierarchy(p, chips, cs, cd)
	for i := 0; i+2 < len(ops); i += 3 {
		kind, sel, l := ops[i]%8, ops[i+1], fuzzLines[int(ops[i+2])%len(fuzzLines)]
		core, chip := int(sel)%p, int(sel/16)%(chips+1) // chip == chips is out of range
		var got, want string
		if kind == 7 {
			// Flush one level directly; the ideal caches' flush order is
			// unspecified, so compare the sorted outputs.
			if lv := int(sel) % (p + chips); lv < p {
				got, want = fmt.Sprint(sortedEvicted(h.dist[lv].Flush())), fmt.Sprint(sortedEvicted(ref.dist[lv].Flush()))
			} else {
				got, want = fmt.Sprint(sortedEvicted(h.shared[lv-p].Flush())), fmt.Sprint(sortedEvicted(ref.shared[lv-p].Flush()))
			}
		} else {
			got, want = idealOp(kind, core, chip, l, h), idealOp(kind, core, chip, l, ref)
		}
		if got != want {
			t.Fatalf("op %d (kind %d, sel %d, %v): got %q, reference %q", i/3, kind, sel, l, got, want)
		}
		compareIdeal(t, i/3, h, ref)
	}
	if got, want := h.Flush(), ref.Flush(); got != want {
		t.Fatalf("Flush wrote back %d lines, reference %d", got, want)
	}
	compareIdeal(t, -1, h, ref)
}

// idealOp applies one protocol op of the given kind to h and renders
// its error.
func idealOp(kind byte, core, chip int, l Line, h idealOps) string {
	var err error
	switch kind {
	case 0:
		err = h.LoadSharedChip(chip, l)
	case 1:
		err = h.EvictSharedChip(chip, l)
	case 2:
		err = h.LoadDistributedFrom(core, chip, l)
	case 3:
		err = h.EvictDistributedTo(core, chip, l)
	case 4:
		err = h.Reference(core, l)
	case 5:
		err = h.WriteDistributed(core, l)
	case 6:
		err = h.WriteShared(l)
	}
	return errString(err)
}

func lineOrder(a, b Line) int {
	return cmp.Or(cmp.Compare(a.Matrix, b.Matrix), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Col, b.Col))
}

func sortedEvicted(evs []Evicted) []Evicted {
	return slices.SortedFunc(slices.Values(evs), func(a, b Evicted) int { return lineOrder(a.Line, b.Line) })
}

// compareIdeal requires identical observable state after op step; the
// ideal caches' residency order is unspecified, so it compares sets.
func compareIdeal(t *testing.T, step int, h *IdealHierarchy, ref *refIdealHierarchy) {
	t.Helper()
	levels := append(append([]*Ideal(nil), h.dist...), h.shared...)
	refLevels := append(append([]*refIdeal(nil), ref.dist...), ref.shared...)
	for i, c := range levels {
		r := refLevels[i]
		if c.Stats() != r.stats {
			t.Fatalf("step %d level %d: stats %v, reference %v", step, i, c.Stats(), r.stats)
		}
		got := slices.SortedFunc(slices.Values(c.Resident()), lineOrder)
		want := slices.SortedFunc(slices.Values(r.Resident()), lineOrder)
		if !slices.Equal(got, want) || c.Len() != len(r.resident) {
			t.Fatalf("step %d level %d: resident %v, reference %v", step, i, got, want)
		}
		for _, l := range fuzzLines {
			if c.IsDirty(l) != r.IsDirty(l) || c.Contains(l) != r.Contains(l) {
				t.Fatalf("step %d level %d: %v dirty/resident state differs", step, i, l)
			}
		}
	}
	var refMS uint64
	for chip, s := range ref.shared {
		refMS += s.stats.Misses
		if h.MSChip(chip) != s.stats.Misses {
			t.Fatalf("step %d: MS(chip %d) %d, reference %d", step, chip, h.MSChip(chip), s.stats.Misses)
		}
	}
	if h.MS() != refMS || h.MemoryWriteBacks() != ref.memWB {
		t.Fatalf("step %d: MS %d WB %d, reference %d %d", step, h.MS(), h.MemoryWriteBacks(), refMS, ref.memWB)
	}
	for c := range h.dist {
		if h.MD(c) != ref.dist[c].stats.Misses {
			t.Fatalf("step %d: MD(%d) %d, reference %d", step, c, h.MD(c), ref.dist[c].stats.Misses)
		}
	}
	if !reflect.DeepEqual(h.icStage, ref.icStage) || !reflect.DeepEqual(h.icWB, ref.icWB) {
		t.Fatalf("step %d: inter-chip pairs %v/%v, reference %v/%v", step, h.icStage, h.icWB, ref.icStage, ref.icWB)
	}
}
