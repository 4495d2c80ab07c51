package cache

import (
	"fmt"

	"repro/internal/matrix"
)

// Metrics is the read-only view of a hierarchy's miss counters shared by
// both policies. MS and MD follow the paper's notation: MS is the number
// of shared-cache misses, MD(c) the miss count of core c's distributed
// cache, and MDMax = max_c MD(c) the quantity the paper calls MD.
type Metrics interface {
	Cores() int
	MS() uint64
	MD(core int) uint64
	MDMax() uint64
	MDSum() uint64
	MemoryWriteBacks() uint64
}

// maxMD and sumMD implement the shared metric arithmetic.
func maxMD(m Metrics) uint64 {
	var best uint64
	for c := 0; c < m.Cores(); c++ {
		if v := m.MD(c); v > best {
			best = v
		}
	}
	return best
}

func sumMD(m Metrics) uint64 {
	var s uint64
	for c := 0; c < m.Cores(); c++ {
		s += m.MD(c)
	}
	return s
}

// LRUHierarchy is the two-level inclusive hierarchy under the classical
// LRU policy: "read and write operations are made at the distributed
// cache level (top of hierarchy); if a miss occurs, operations are
// propagated throughout the hierarchy until a cache hit happens."
type LRUHierarchy struct {
	index  *matrix.BlockIndex // numbers lines for every level
	shared *LRU
	dist   []*LRU
	memWB  uint64
}

// NewLRUHierarchy builds a hierarchy with p distributed caches of
// distCap lines each below one shared cache of sharedCap lines. The
// inclusion constraint CS ≥ p·CD is enforced.
func NewLRUHierarchy(p, sharedCap, distCap int) (*LRUHierarchy, error) {
	if p <= 0 {
		return nil, fmt.Errorf("cache: need at least one core, got %d", p)
	}
	if sharedCap < p*distCap {
		return nil, fmt.Errorf("cache: inclusion requires CS ≥ p·CD, got CS=%d < %d·%d",
			sharedCap, p, distCap)
	}
	index := new(matrix.BlockIndex)
	h := &LRUHierarchy{index: index, shared: newLRU(sharedCap, index), dist: make([]*LRU, p)}
	for i := range h.dist {
		h.dist[i] = newLRU(distCap, index)
	}
	return h, nil
}

// Cores returns the number of distributed caches.
func (h *LRUHierarchy) Cores() int { return len(h.dist) }

// Read records a read of line l by core. Misses propagate down the
// hierarchy and fills propagate back up, maintaining inclusion.
func (h *LRUHierarchy) Read(core int, l Line) { h.access(core, l, false) }

// Write records a write of line l by core. The cache model is
// write-allocate/write-back: a write miss loads the line like a read
// miss, then dirties it in the core's distributed cache.
func (h *LRUHierarchy) Write(core int, l Line) { h.access(core, l, true) }

func (h *LRUHierarchy) access(core int, l Line, write bool) {
	id := lineID(h.index, l)
	d := h.dist[core]
	if d.touch(id) {
		if write {
			d.markDirty(id)
		}
		return
	}
	// Distributed miss (counted by touch). Seek the line in the shared
	// cache; a miss there (counted by touch) loads it from memory.
	h.sharedAccess(id, l)
	// Fill the distributed cache; a line it evicts is still resident in
	// the shared cache by inclusion, so a dirty eviction merges there.
	if victim, ev, evicted := d.insert(id, l); evicted && ev.Dirty {
		if !h.shared.markDirty(victim) {
			// Inclusion guarantees residency; reaching here means the
			// hierarchy invariant was broken.
			panic(fmt.Sprintf("cache: inclusion violated, %v dirty in core %d but absent from shared cache",
				ev.Line, core))
		}
	}
	if write {
		d.markDirty(id)
	}
}

// SharedRead records an access to l at the shared-cache level without
// involving any distributed cache. It models a pseudocode "Load … in the
// shared cache" operation executed under the LRU policy: a prefetch-like
// read that installs the line in the shared cache (or refreshes its
// recency), counted as a shared miss if absent.
func (h *LRUHierarchy) SharedRead(l Line) { h.sharedAccess(lineID(h.index, l), l) }

// sharedAccess touches line l, whose ID is id, in the shared cache,
// installing it from memory on a miss.
func (h *LRUHierarchy) sharedAccess(id int32, l Line) {
	if !h.shared.touch(id) {
		if victim, ev, evicted := h.shared.insert(id, l); evicted {
			h.backInvalidate(victim, ev.Dirty)
		}
	}
}

// backInvalidate removes a line evicted from the shared cache from every
// distributed cache (inclusive hierarchy) and counts the memory
// write-back if any copy was dirty.
func (h *LRUHierarchy) backInvalidate(victim int32, dirty bool) {
	for _, d := range h.dist {
		if wd, present := d.invalidate(victim); present && wd {
			dirty = true
		}
	}
	if dirty {
		h.memWB++
	}
}

// Flush drains every cache, pushing dirty lines to memory, and returns
// the number of memory write-backs it caused: one per line dirty at any
// level. Used at end of simulation so that write-back accounting is
// complete.
func (h *LRUHierarchy) Flush() uint64 {
	seen := make([]bool, h.index.Len())
	var n uint64
	mark := func(id int32, _ Line, dirty bool) {
		if dirty && !seen[id] {
			seen[id] = true
			n++
		}
	}
	h.shared.drain(mark)
	for _, d := range h.dist {
		d.drain(mark)
	}
	h.memWB += n
	return n
}

// Shared exposes the shared cache (for tests and instrumentation).
func (h *LRUHierarchy) Shared() *LRU { return h.shared }

// Distributed exposes core c's private cache.
func (h *LRUHierarchy) Distributed(core int) *LRU { return h.dist[core] }

// MS returns the shared-cache miss count.
func (h *LRUHierarchy) MS() uint64 { return h.shared.Stats().Misses }

// MD returns the miss count of core c's distributed cache.
func (h *LRUHierarchy) MD(core int) uint64 { return h.dist[core].Stats().Misses }

// MDMax returns max_c MD(c), the paper's MD.
func (h *LRUHierarchy) MDMax() uint64 { return maxMD(h) }

// MDSum returns the total distributed misses across cores.
func (h *LRUHierarchy) MDSum() uint64 { return sumMD(h) }

// MemoryWriteBacks returns the number of dirty lines written to memory.
func (h *LRUHierarchy) MemoryWriteBacks() uint64 { return h.memWB }

// CheckInclusion verifies that every line resident in a distributed cache
// is also resident in the shared cache. Intended for tests and
// property-based checks.
func (h *LRUHierarchy) CheckInclusion() error {
	for c, d := range h.dist {
		for _, l := range d.Resident() {
			if !h.shared.Contains(l) {
				return fmt.Errorf("cache: line %v in core %d but not in shared cache", l, c)
			}
		}
	}
	return nil
}

// IdealHierarchy is the hierarchy under the omniscient IDEAL policy. The
// managing algorithm issues explicit loads and evictions at both levels;
// "I/O operations are not propagated throughout the hierarchy in case of
// a cache miss: it is the user responsibility to guarantee that a given
// data is present in every caches below the target cache."
//
// On a multi-chip machine the shared level is one explicitly managed
// cache of sharedCap lines PER CHIP, with the p cores split into equal
// contiguous groups. Every shared-level operation then names the chip it
// targets (the line's home chip, assigned by the managing program), and
// a distributed load whose line is homed on a foreign chip additionally
// crosses the inter-chip stream — counted per (home, user) chip pair in
// both directions (stages home→user, dirty write-backs user→home). The
// single-chip constructor and the chip-less methods keep the paper's
// original model intact at chip 0.
type IdealHierarchy struct {
	index  *matrix.BlockIndex // numbers lines for every level
	shared []*Ideal           // one per chip
	chips  int
	dist   []*Ideal
	memWB  uint64

	icStage [][]uint64 // [home][user] inter-chip fills
	icWB    [][]uint64 // [home][user] inter-chip dirty merges
}

// NewIdealHierarchy builds a single-chip explicitly managed hierarchy.
func NewIdealHierarchy(p, sharedCap, distCap int) (*IdealHierarchy, error) {
	return NewIdealHierarchyChips(p, 1, sharedCap, distCap)
}

// NewIdealHierarchyChips builds an explicitly managed hierarchy with
// chips shared caches of sharedCap lines each. Inclusion is per chip:
// each chip's shared cache must hold the distributed footprint of its
// own cores, CS ≥ (p/chips)·CD.
func NewIdealHierarchyChips(p, chips, sharedCap, distCap int) (*IdealHierarchy, error) {
	if p <= 0 {
		return nil, fmt.Errorf("cache: need at least one core, got %d", p)
	}
	if chips < 1 {
		chips = 1
	}
	if chips > p || p%chips != 0 {
		return nil, fmt.Errorf("cache: %d chips must split p=%d cores evenly", chips, p)
	}
	if per := p / chips; sharedCap < per*distCap {
		return nil, fmt.Errorf("cache: inclusion requires CS ≥ (p/chips)·CD, got CS=%d < %d·%d",
			sharedCap, per, distCap)
	}
	index := new(matrix.BlockIndex)
	h := &IdealHierarchy{
		index:   index,
		shared:  make([]*Ideal, chips),
		chips:   chips,
		dist:    make([]*Ideal, p),
		icStage: make([][]uint64, chips),
		icWB:    make([][]uint64, chips),
	}
	for i := range h.shared {
		h.shared[i] = newIdeal(sharedCap, index)
		h.icStage[i] = make([]uint64, chips)
		h.icWB[i] = make([]uint64, chips)
	}
	for i := range h.dist {
		h.dist[i] = newIdeal(distCap, index)
	}
	return h, nil
}

// Cores returns the number of distributed caches.
func (h *IdealHierarchy) Cores() int { return len(h.dist) }

// Chips returns the number of shared caches.
func (h *IdealHierarchy) Chips() int { return h.chips }

// ChipOf returns the chip owning core (blocked partition).
func (h *IdealHierarchy) ChipOf(core int) int {
	per := len(h.dist) / h.chips
	return core / per
}

// LoadShared brings l from memory into chip 0's shared cache.
func (h *IdealHierarchy) LoadShared(l Line) error { return h.LoadSharedChip(0, l) }

// LoadSharedChip brings l from memory into chip's shared cache (one MS
// miss).
func (h *IdealHierarchy) LoadSharedChip(chip int, l Line) error {
	if chip < 0 || chip >= h.chips {
		return fmt.Errorf("cache: shared load of %v on chip %d of %d", l, chip, h.chips)
	}
	return h.shared[chip].load(lineID(h.index, l), l)
}

// EvictShared drops l from chip 0's shared cache.
func (h *IdealHierarchy) EvictShared(l Line) error { return h.EvictSharedChip(0, l) }

// EvictSharedChip drops l from chip's shared cache. Inclusion forbids
// evicting a line still held by any distributed cache.
func (h *IdealHierarchy) EvictSharedChip(chip int, l Line) error {
	if chip < 0 || chip >= h.chips {
		return fmt.Errorf("cache: shared evict of %v on chip %d of %d", l, chip, h.chips)
	}
	id := lineID(h.index, l)
	for c, d := range h.dist {
		if d.at(id) != 0 {
			return fmt.Errorf("cache: evicting %v from shared cache while resident in core %d", l, c)
		}
	}
	dirty, err := h.shared[chip].evict(id, l)
	if err != nil {
		return err
	}
	if dirty {
		h.memWB++
	}
	return nil
}

// LoadDistributed brings l from chip 0's shared cache into core's
// private cache.
func (h *IdealHierarchy) LoadDistributed(core int, l Line) error {
	return h.LoadDistributedFrom(core, 0, l)
}

// LoadDistributedFrom brings l from its home chip's shared cache into
// core's private cache (one MD(core) miss). The line must already be
// resident on the home chip; when the home differs from the core's own
// chip the fill also crosses the inter-chip stream (one home→user
// stage on that pair's counter).
func (h *IdealHierarchy) LoadDistributedFrom(core, home int, l Line) error {
	if home < 0 || home >= h.chips {
		return fmt.Errorf("cache: core %d loading %v from chip %d of %d", core, l, home, h.chips)
	}
	id := lineID(h.index, l)
	if h.shared[home].at(id) == 0 {
		return fmt.Errorf("cache: core %d loading %v not resident in chip %d's shared cache", core, l, home)
	}
	if err := h.dist[core].load(id, l); err != nil {
		return err
	}
	if user := h.ChipOf(core); user != home {
		h.icStage[home][user]++
	}
	return nil
}

// EvictDistributed drops l from core's private cache, merging a dirty
// copy into chip 0's shared cache.
func (h *IdealHierarchy) EvictDistributed(core int, l Line) error {
	return h.EvictDistributedTo(core, 0, l)
}

// EvictDistributedTo drops l from core's private cache, merging a dirty
// copy into its home chip's shared cache; a dirty merge to a foreign
// home crosses the inter-chip stream (one user→home write-back on that
// pair's counter).
func (h *IdealHierarchy) EvictDistributedTo(core, home int, l Line) error {
	if home < 0 || home >= h.chips {
		return fmt.Errorf("cache: core %d evicting %v to chip %d of %d", core, l, home, h.chips)
	}
	id := lineID(h.index, l)
	dirty, err := h.dist[core].evict(id, l)
	if err != nil {
		return err
	}
	if dirty {
		if err := h.shared[home].markDirty(id, l); err != nil {
			return err
		}
		if user := h.ChipOf(core); user != home {
			h.icWB[home][user]++
		}
	}
	return nil
}

// Reference records a compute use of l by core (a distributed hit).
func (h *IdealHierarchy) Reference(core int, l Line) error {
	return h.dist[core].reference(lineID(h.index, l), l)
}

// WriteDistributed records a write by core: a reference plus dirtying.
func (h *IdealHierarchy) WriteDistributed(core int, l Line) error {
	id := lineID(h.index, l)
	if err := h.dist[core].reference(id, l); err != nil {
		return err
	}
	return h.dist[core].markDirty(id, l)
}

// WriteShared marks a shared-resident line dirty without involving a
// distributed cache (used when an algorithm updates a block at the
// shared level, e.g. "Update block Cc in the shared cache"). The line
// is sought on every chip; its home holds the only copy.
func (h *IdealHierarchy) WriteShared(l Line) error {
	id := lineID(h.index, l)
	for _, s := range h.shared {
		if s.at(id) != 0 {
			return s.markDirty(id, l)
		}
	}
	return h.shared[0].markDirty(id, l)
}

// Flush drains every cache to memory and returns the write-back count:
// one per line dirty at any level.
func (h *IdealHierarchy) Flush() uint64 {
	seen := make([]bool, h.index.Len())
	var n uint64
	mark := func(id int32, _ Line, dirty bool) {
		if dirty && !seen[id] {
			seen[id] = true
			n++
		}
	}
	for _, d := range h.dist {
		d.drain(mark)
	}
	for _, s := range h.shared {
		s.drain(mark)
	}
	h.memWB += n
	return n
}

// Shared exposes chip 0's shared cache.
func (h *IdealHierarchy) Shared() *Ideal { return h.shared[0] }

// Distributed exposes core c's private cache.
func (h *IdealHierarchy) Distributed(core int) *Ideal { return h.dist[core] }

// MS returns the shared-cache miss (explicit load) count, summed over
// chips.
func (h *IdealHierarchy) MS() uint64 {
	var s uint64
	for _, sh := range h.shared {
		s += sh.Stats().Misses
	}
	return s
}

// MSChip returns chip's shared-cache miss count.
func (h *IdealHierarchy) MSChip(chip int) uint64 { return h.shared[chip].Stats().Misses }

// InterChipStages returns the number of distributed fills that crossed
// the interconnect from home's shared cache to a core on chip user.
func (h *IdealHierarchy) InterChipStages(home, user int) uint64 { return h.icStage[home][user] }

// InterChipWriteBacks returns the number of dirty merges that crossed
// the interconnect from a core on chip user back to home's shared
// cache.
func (h *IdealHierarchy) InterChipWriteBacks(home, user int) uint64 { return h.icWB[home][user] }

// InterChipTotals sums the inter-chip stream over all chip pairs.
func (h *IdealHierarchy) InterChipTotals() (stages, writeBacks uint64) {
	for home := range h.icStage {
		for user := range h.icStage[home] {
			stages += h.icStage[home][user]
			writeBacks += h.icWB[home][user]
		}
	}
	return stages, writeBacks
}

// MD returns core c's distributed miss (explicit load) count.
func (h *IdealHierarchy) MD(core int) uint64 { return h.dist[core].Stats().Misses }

// MDMax returns max_c MD(c), the paper's MD.
func (h *IdealHierarchy) MDMax() uint64 { return maxMD(h) }

// MDSum returns the total distributed misses across cores.
func (h *IdealHierarchy) MDSum() uint64 { return sumMD(h) }

// MemoryWriteBacks returns the number of dirty lines written to memory.
func (h *IdealHierarchy) MemoryWriteBacks() uint64 { return h.memWB }
