package parallel

import (
	"fmt"
	"sync"

	"repro/internal/matrix"
	"repro/internal/schedule"
)

// SharedArena is the physical realisation of the paper's shared cache:
// one per Team, sized to the declared CS, holding packed q×q tiles in
// one contiguous allocation. It sits between main memory (the operand
// matrices) and the per-core Arenas, splitting the executor's data
// movement into the model's two streams:
//
//	memory ↔ shared arena   Stage / Unstage / Drain   (MS traffic)
//	shared ↔ core arenas    Refill / Absorb           (MD traffic)
//
// The discipline mirrors the IDEAL hierarchy's: staging a resident
// block or overflowing CS is an error, a core may only refill a block
// that is shared-resident (inclusion), and a dirty core tile merges
// upward into the shared copy before the shared level writes it back to
// memory.
//
// Like a core Arena, it keys its slots by line ID during the
// executor's replay (the unexported stage, unstage, refill and absorb)
// and by line in the exported methods.
//
// Concurrency contract: Stage, Unstage and Drain (and their unexported
// forms) run on a single goroutine — the driving goroutine,
// between parallel regions in ModeShared and also, as the stager,
// concurrently with worker regions in ModeSharedPipelined. Refill and
// Absorb run on worker goroutines inside regions. The slot tables and
// free list are guarded by a readers-writer lock so the pipelined
// stager may restage free slots while workers look up resident ones;
// the tile *data* needs no lock, because every concurrent pairing
// addresses disjoint lines — the schedules guarantee that dirty (C)
// blocks are disjoint across cores, and the depth-1 plan of
// schedule.PlanPipelineDepth proves the stager's prefetches (the next
// gap's stages) and retires never address a line the running region
// touches. The race detector verifies the contract over the whole test
// suite.
type SharedArena struct {
	mu    sync.RWMutex // guards the slot tables (arena.byID, arena.index), arena.free and slot headers
	arena Arena
}

// NewSharedArena allocates a shared staging buffer of capBlocks tiles
// of q×q values — the executor's CS.
func NewSharedArena(capBlocks, q int) (*SharedArena, error) {
	a, err := newArena(capBlocks, q, "shared arena")
	if err != nil {
		return nil, err
	}
	return &SharedArena{arena: *a}, nil
}

// Capacity returns the number of tile slots (CS).
func (sa *SharedArena) Capacity() int { return sa.arena.Capacity() }

// setVerify arms or disarms the integrity tripwire. Shared slots verify
// even when dirty: Absorb recomputes the checksum on every legitimate
// write, so any other modification is corruption.
func (sa *SharedArena) setVerify(on bool) {
	sa.mu.Lock()
	sa.arena.verify = on
	sa.arena.verifyDirty = on
	sa.mu.Unlock()
}

// bind sizes the ID slot table to a trace of n lines (see Arena.bind).
func (sa *SharedArena) bind(n int) {
	sa.mu.Lock()
	sa.arena.bind(n)
	sa.mu.Unlock()
}

// corrupt flips bit of the first value of k's resident copy — the
// physical effect of an injected ActCorrupt at a StageShared point. A
// non-resident line is a no-op (the stage that was to be corrupted
// failed).
func (sa *SharedArena) corrupt(k slotKey, bit uint) {
	sa.mu.RLock()
	slot := sa.arena.tileKey(k)
	sa.mu.RUnlock()
	if slot != nil {
		corruptData(slot.data, bit)
	}
}

// Discard drops every resident tile without any write-back and zeroes
// the buffer (see Arena.Discard) — Executor.Reset's failure-path drain.
func (sa *SharedArena) Discard() {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	sa.arena.Discard()
}

// FirstTouch writes one value per page of the arena's backing buffer.
// Go zeroes heap pages lazily, so the first write decides which NUMA
// node backs them; the executor has a worker of the owning chip call
// this right after allocation, before any tile is staged, so the
// arena's memory is local to the cores that refill from it. Writing
// zero keeps the buffer's logical contents untouched.
func (sa *SharedArena) FirstTouch() {
	const pageFloats = 4096 / 8
	for i := 0; i < len(sa.arena.buf); i += pageFloats {
		sa.arena.buf[i] = 0
	}
}

// Resident returns the number of currently staged tiles.
func (sa *SharedArena) Resident() int {
	sa.mu.RLock()
	defer sa.mu.RUnlock()
	return sa.arena.Resident()
}

// Contains reports whether l is shared-resident.
func (sa *SharedArena) Contains(l schedule.Line) bool {
	sa.mu.RLock()
	defer sa.mu.RUnlock()
	return sa.arena.tile(l) != nil
}

// Stage packs the src tile into a free slot under line l: the physical
// "load into the shared cache" (one MS transfer). The tile's value
// count is returned for traffic accounting.
func (sa *SharedArena) Stage(l schedule.Line, src *matrix.Dense) (values int, err error) {
	return sa.stage(lineKey(l), src)
}

// stage is Stage under key k. Only the slot claim holds the lock; the
// copy itself runs unlocked — the slot was free, so no worker can be
// addressing it.
func (sa *SharedArena) stage(k slotKey, src *matrix.Dense) (values int, err error) {
	sa.mu.Lock()
	slot, err := sa.arena.alloc(k, src.Rows(), src.Cols())
	sa.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if err := sa.arena.fill(slot, src); err != nil {
		return 0, err
	}
	return src.Rows() * src.Cols(), nil
}

// Unstage frees the slot holding l, writing the packed tile back into
// dst first if it is dirty — the "write back to main memory" of the
// pseudocode. It reports the tile's value count and whether a physical
// write-back happened.
func (sa *SharedArena) Unstage(l schedule.Line, dst *matrix.Dense) (values int, dirty bool, err error) {
	return sa.unstage(lineKey(l), dst)
}

// unstage is Unstage under key k. The released data stays valid for
// the unlocked copy because only the single staging goroutine can
// restage the slot.
func (sa *SharedArena) unstage(k slotKey, dst *matrix.Dense) (values int, dirty bool, err error) {
	sa.mu.Lock()
	rows, cols, data, dirty, err := sa.arena.releaseKey(k)
	sa.mu.Unlock()
	if err != nil {
		return 0, false, err
	}
	if dirty {
		if err := matrix.Unpack(dst, data); err != nil {
			return 0, false, err
		}
	}
	return rows * cols, dirty, nil
}

// Refill stages the shared-resident packed image of l into the core
// arena dst: the intra-chip shared→core copy (one MD transfer).
// Refilling a block that is not shared-resident is an error — the
// inclusive hierarchy's "it is the user responsibility to guarantee
// that a given data is present in every cache below the target cache".
func (sa *SharedArena) Refill(dst *Arena, l schedule.Line) (values int, err error) {
	return sa.refill(dst, lineKey(l))
}

// refill is Refill under key k, which keys the copy in dst too: both
// arenas are bound to the same trace.
func (sa *SharedArena) refill(dst *Arena, k slotKey) (values int, err error) {
	sa.mu.RLock()
	slot := sa.arena.tileKey(k)
	sa.mu.RUnlock()
	if slot == nil {
		return 0, fmt.Errorf("parallel: core refill of block %v not resident in the shared arena", k.line)
	}
	if err := sa.arena.check(slot); err != nil {
		return 0, err
	}
	if err := dst.stagePacked(k, slot.rows, slot.cols, slot.data); err != nil {
		return 0, err
	}
	return slot.rows * slot.cols, nil
}

// Absorb merges a dirty packed tile released by a core arena into the
// resident shared copy and marks it dirty — the upward half of the MD
// stream, mirroring EvictDistributed's merge under IDEAL. Absorbing
// into a non-resident block is an error (inclusion was violated).
func (sa *SharedArena) Absorb(l schedule.Line, rows, cols int, data []float64) error {
	return sa.absorb(lineKey(l), rows, cols, data)
}

// absorb is Absorb under key k.
func (sa *SharedArena) absorb(k slotKey, rows, cols int, data []float64) error {
	sa.mu.RLock()
	slot := sa.arena.tileKey(k)
	sa.mu.RUnlock()
	if slot == nil {
		return fmt.Errorf("parallel: write-back of %v, but it is not resident in the shared arena", k.line)
	}
	if slot.rows != rows || slot.cols != cols {
		return fmt.Errorf("parallel: write-back of %dx%d tile %v over a %dx%d shared copy",
			rows, cols, k.line, slot.rows, slot.cols)
	}
	copy(slot.data, data[:rows*cols])
	slot.dirty = true
	if sa.arena.verify {
		slot.sum = checksum(slot.data)
	}
	return nil
}

// Drain empties the shared arena, invoking merge for every dirty
// resident tile (see Arena.Drain). The executor calls it at end of run
// after the core arenas have drained upward, so every surviving dirty
// tile carries the freshest data.
func (sa *SharedArena) Drain(merge func(l schedule.Line, rows, cols int, data []float64) error) (int, error) {
	sa.mu.Lock()
	defer sa.mu.Unlock()
	return sa.arena.Drain(merge)
}
