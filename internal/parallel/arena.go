package parallel

import (
	"fmt"
	"slices"

	"repro/internal/matrix"
	"repro/internal/schedule"
)

// Arena is one core's staging buffer: the physical realisation of the
// paper's distributed cache. It holds up to capBlocks packed q×q tiles
// in one contiguous allocation. Stage copies a tile of the operand
// matrices into a free slot (the paper's "load into the distributed
// cache of core c"), computes run on the packed copies, and Unstage
// writes dirty C tiles back and frees the slot. The discipline is
// exactly as strict as the IDEAL cache's: staging a resident line,
// overflowing the capacity, or unstaging a non-resident line is an
// error — the executor's memory traffic is literally the stream the
// simulator counts.
//
// A slot is found by its slotKey. The executor's replay keys slots by
// the line IDs of the trace it replays, through a slot table that bind
// sizes to that trace before the run, so no replayed op hashes a line.
// The exported Line-keyed methods — Stage, Unstage and the
// SharedArena's — are for callers without a trace and key slots by line
// through a map. A slot is released under the key it was staged under.
//
// An Arena is owned by a single worker goroutine; it needs no locking.
// The same slot machinery backs the team-wide SharedArena, whose
// concurrency rules are its own (see shared.go).
type Arena struct {
	level    string // "core arena" or "shared arena", for error messages
	blockLen int    // q·q values per slot
	buf      []float64
	slots    []arenaSlot
	free     []int
	byID     []int32               // slot holding each line ID of the bound trace, or -1
	index    map[schedule.Line]int // slot holding each line staged by line

	// verify arms the integrity tripwire (Executor.SetIntegrityChecks):
	// staging records a checksum of the packed copy, release re-verifies
	// it. Clean slots only by default — kernels legitimately mutate dirty
	// tiles — unless verifyDirty is also set, which the shared arena does
	// because Absorb recomputes the sum on every legitimate write.
	verify      bool
	verifyDirty bool
}

// slotKey names the line a slot holds the way its caller knows it: by
// its ID in the trace the arena is bound to, or, when id is negative, by
// the line alone. line is set either way, for errors and merges.
type slotKey struct {
	id   int32
	line schedule.Line
}

// lineKey keys a slot by line alone; idKey by line ID id of the bound
// trace, whose line is l.
func lineKey(l schedule.Line) slotKey                   { return slotKey{id: -1, line: l} }
func idKey(id schedule.LineID, l schedule.Line) slotKey { return slotKey{id: int32(id), line: l} }

type arenaSlot struct {
	key        slotKey
	resident   bool
	rows, cols int
	dirty      bool
	sum        uint64    // checksum of data at last stage/absorb (verify mode)
	data       []float64 // slice of buf, len rows·cols while resident
	// hdr is a compact rows×cols header over data, kept across stages
	// and rebuilt only when a staged tile's shape differs. It is valid
	// only while the slot is resident.
	hdr *matrix.Dense
}

// NewArena allocates a staging buffer of capBlocks tiles of q×q values.
func NewArena(capBlocks, q int) (*Arena, error) {
	return newArena(capBlocks, q, "core arena")
}

func newArena(capBlocks, q int, level string) (*Arena, error) {
	if capBlocks <= 0 || q <= 0 {
		return nil, fmt.Errorf("parallel: %s needs positive capacity and block edge, got %d blocks of %dx%d",
			level, capBlocks, q, q)
	}
	a := &Arena{
		level:    level,
		blockLen: q * q,
		buf:      make([]float64, capBlocks*q*q),
		slots:    make([]arenaSlot, capBlocks),
		index:    make(map[schedule.Line]int, capBlocks),
		free:     make([]int, 0, capBlocks),
	}
	for i := capBlocks - 1; i >= 0; i-- {
		a.free = append(a.free, i)
	}
	return a, nil
}

// Capacity returns the number of tile slots.
func (a *Arena) Capacity() int { return len(a.slots) }

// Resident returns the number of currently staged tiles.
func (a *Arena) Resident() int { return len(a.slots) - len(a.free) }

// bind sizes the ID slot table to a trace of n lines, with no line
// resident. The executor binds every arena to the trace it is about to
// replay, while the arenas are empty.
func (a *Arena) bind(n int) {
	a.byID = slices.Grow(a.byID[:0], n)[:n]
	for i := range a.byID {
		a.byID[i] = -1
	}
}

// find returns the index of the slot holding k's line, or -1.
func (a *Arena) find(k slotKey) int {
	if k.id >= 0 {
		return int(a.byID[k.id])
	}
	if i, ok := a.index[k.line]; ok {
		return i
	}
	return -1
}

// alloc claims a free slot for a rows×cols tile under k, enforcing the
// staging discipline (no re-stage of a resident line, no overflow, no
// oversized tile). The caller fills the returned slot's data.
func (a *Arena) alloc(k slotKey, rows, cols int) (*arenaSlot, error) {
	if a.find(k) >= 0 {
		return nil, fmt.Errorf("parallel: %s stage of resident block %v", a.level, k.line)
	}
	if len(a.free) == 0 {
		return nil, fmt.Errorf("parallel: %s full (capacity %d blocks) staging %v", a.level, len(a.slots), k.line)
	}
	if rows*cols > a.blockLen {
		return nil, fmt.Errorf("parallel: %dx%d tile %v exceeds the %s's %d-value slots",
			rows, cols, k.line, a.level, a.blockLen)
	}
	i := a.free[len(a.free)-1]
	slot := &a.slots[i]
	slot.data = a.buf[i*a.blockLen : i*a.blockLen+rows*cols]
	slot.key = k
	slot.resident = true
	slot.dirty = false
	if slot.hdr == nil || slot.rows != rows || slot.cols != cols {
		// The kernels in the replay hot path run on arena-resident tiles
		// through this header; a slot keeps it while its tiles keep their
		// shape, which in a blocked schedule is all but the ragged edges.
		hdr, err := matrix.NewFromSlice(rows, cols, slot.data)
		if err != nil {
			return nil, err
		}
		slot.hdr = hdr
	}
	slot.rows = rows
	slot.cols = cols
	a.free = a.free[:len(a.free)-1]
	if k.id >= 0 {
		a.byID[k.id] = int32(i)
	} else {
		a.index[k.line] = i
	}
	return slot, nil
}

// Stage packs the src tile into a free slot under line l. Mirroring the
// IDEAL cache, staging a resident line or staging into a full arena is
// an error (it indicates a bug in the schedule's staging discipline).
func (a *Arena) Stage(l schedule.Line, src *matrix.Dense) error { return a.stage(lineKey(l), src) }

// stage is Stage under key k.
func (a *Arena) stage(k slotKey, src *matrix.Dense) error {
	slot, err := a.alloc(k, src.Rows(), src.Cols())
	if err != nil {
		return err
	}
	return a.fill(slot, src)
}

// fill packs src into a freshly claimed slot.
func (a *Arena) fill(slot *arenaSlot, src *matrix.Dense) error {
	if _, err := matrix.Pack(slot.data, src); err != nil {
		return err
	}
	if a.verify {
		slot.sum = checksum(slot.data)
	}
	return nil
}

// stagePacked stages an already-packed rows×cols image under k — the
// intra-chip copy a core arena makes when refilling from the shared
// arena. Discipline is identical to Stage's.
func (a *Arena) stagePacked(k slotKey, rows, cols int, src []float64) error {
	slot, err := a.alloc(k, rows, cols)
	if err != nil {
		return err
	}
	copy(slot.data, src[:rows*cols])
	if a.verify {
		slot.sum = checksum(slot.data)
	}
	return nil
}

// release frees the slot holding l and hands its packed contents to the
// caller, which decides where a dirty tile merges (operand matrices in
// ModePacked, the shared arena in ModeShared). The returned data slice
// stays valid until the slot is staged again. Releasing a non-resident
// line is an error, exactly as evicting one is under IDEAL.
func (a *Arena) release(l schedule.Line) (rows, cols int, data []float64, dirty bool, err error) {
	return a.releaseKey(lineKey(l))
}

// releaseKey is release under key k.
func (a *Arena) releaseKey(k slotKey) (rows, cols int, data []float64, dirty bool, err error) {
	i := a.find(k)
	if i < 0 {
		return 0, 0, nil, false, fmt.Errorf("parallel: %s unstage of non-resident block %v", a.level, k.line)
	}
	slot := &a.slots[i]
	if err := a.check(slot); err != nil {
		return 0, 0, nil, false, err
	}
	a.freeSlot(i)
	return slot.rows, slot.cols, slot.data, slot.dirty, nil
}

// freeSlot returns resident slot i to the free list and drops its key.
func (a *Arena) freeSlot(i int) {
	slot := &a.slots[i]
	if slot.key.id >= 0 {
		a.byID[slot.key.id] = -1
	} else {
		delete(a.index, slot.key.line)
	}
	slot.resident = false
	a.free = append(a.free, i)
}

// check re-verifies a resident slot's checksum under the verify policy
// (see the Arena verify fields). A mismatch means the packed copy was
// modified outside any legitimate write — injected corruption, a stray
// store — and fails with ErrIntegrity.
func (a *Arena) check(slot *arenaSlot) error {
	if !a.verify || (slot.dirty && !a.verifyDirty) {
		return nil
	}
	if checksum(slot.data) != slot.sum {
		return fmt.Errorf("%w: %s copy of %v changed while resident", ErrIntegrity, a.level, slot.key.line)
	}
	return nil
}

// Unstage frees the slot holding l, writing the packed tile back into
// dst first if it is dirty.
func (a *Arena) Unstage(l schedule.Line, dst *matrix.Dense) error {
	_, _, data, dirty, err := a.release(l)
	if err != nil {
		return err
	}
	if dirty {
		return matrix.Unpack(dst, data)
	}
	return nil
}

// tile returns the slot holding l, or nil if l is not staged.
func (a *Arena) tile(l schedule.Line) *arenaSlot { return a.tileKey(lineKey(l)) }

// tileKey is tile under key k.
func (a *Arena) tileKey(k slotKey) *arenaSlot {
	if i := a.find(k); i >= 0 {
		return &a.slots[i]
	}
	return nil
}

// Drain empties the arena, invoking merge for every dirty resident tile
// and returning how many tiles were merged. It is the executor's
// end-of-program safety net, mirroring the simulated hierarchy's Flush:
// schedules are expected to unstage everything themselves, so a
// non-empty drain usually indicates a sloppy schedule rather than an
// error. Where a dirty tile merges depends on the level: core arenas
// merge upward into the shared arena (ModeShared) or the operand
// matrices (ModePacked), the shared arena into the matrices.
func (a *Arena) Drain(merge func(l schedule.Line, rows, cols int, data []float64) error) (int, error) {
	return a.drain(func(s *arenaSlot) error { return merge(s.key.line, s.rows, s.cols, s.data) })
}

// drain is Drain handing merge the whole slot, in slot order.
func (a *Arena) drain(merge func(*arenaSlot) error) (int, error) {
	var merged int
	for i := range a.slots {
		slot := &a.slots[i]
		if !slot.resident {
			continue
		}
		if slot.dirty {
			if err := merge(slot); err != nil {
				return merged, err
			}
			merged++
		}
		a.freeSlot(i)
	}
	return merged, nil
}

// Discard drops every resident tile without merging and zeroes the
// backing buffer — the failure-path counterpart of Drain, used by
// Executor.Reset. After a failed or cancelled run the arena's contents
// are suspect (a worker may have died mid-kernel, injected corruption
// may sit in a slot), so nothing is written back and nothing survives
// into the next run.
func (a *Arena) Discard() {
	for i := range a.slots {
		if a.slots[i].resident {
			a.freeSlot(i)
		}
	}
	for i := range a.buf {
		a.buf[i] = 0
	}
}
