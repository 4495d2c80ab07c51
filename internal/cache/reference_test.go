package cache

import "fmt"

// The reference hierarchies below are the simulator's map-keyed
// algorithm, kept as an oracle for the slice-indexed levels: every
// cache keys its lines in a map[Line], and the LRU levels link
// heap-allocated nodes. FuzzLRUHierarchyVsReference drives both with
// the same operation streams and requires identical counters,
// residency, flush output, errors and panics.

type refNode struct {
	line       Line
	dirty      bool
	prev, next *refNode
}

type refLRU struct {
	capacity int
	table    map[Line]*refNode
	sentinel refNode // next is the MRU node, prev the LRU one
	stats    Stats
}

func newRefLRU(capacity int) *refLRU {
	c := &refLRU{capacity: capacity, table: make(map[Line]*refNode)}
	c.sentinel.prev, c.sentinel.next = &c.sentinel, &c.sentinel
	return c
}

func (c *refLRU) Contains(l Line) bool { _, ok := c.table[l]; return ok }

func (c *refLRU) Touch(l Line) bool {
	n, ok := c.table[l]
	if !ok {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.moveToFront(n)
	return true
}

func (c *refLRU) Insert(l Line) (Evicted, bool) {
	if n, ok := c.table[l]; ok {
		c.moveToFront(n)
		return Evicted{}, false
	}
	var ev Evicted
	evicted := false
	if len(c.table) >= c.capacity {
		lru := c.sentinel.prev
		c.unlink(lru)
		delete(c.table, lru.line)
		c.stats.Evictions++
		if lru.dirty {
			c.stats.WriteBacks++
		}
		ev, evicted = Evicted{Line: lru.line, Dirty: lru.dirty}, true
	}
	n := &refNode{line: l}
	c.table[l] = n
	c.pushFront(n)
	return ev, evicted
}

func (c *refLRU) MarkDirty(l Line) bool {
	n, ok := c.table[l]
	if ok {
		n.dirty = true
	}
	return ok
}

func (c *refLRU) IsDirty(l Line) bool { n, ok := c.table[l]; return ok && n.dirty }

func (c *refLRU) Invalidate(l Line) (wasDirty, wasPresent bool) {
	n, ok := c.table[l]
	if !ok {
		return false, false
	}
	c.unlink(n)
	delete(c.table, l)
	c.stats.Invalids++
	return n.dirty, true
}

func (c *refLRU) Flush() []Evicted {
	var dirty []Evicted
	for n := c.sentinel.prev; n != &c.sentinel; n = n.prev {
		if n.dirty {
			dirty = append(dirty, Evicted{Line: n.line, Dirty: true})
		}
	}
	c.table = make(map[Line]*refNode)
	c.sentinel.prev, c.sentinel.next = &c.sentinel, &c.sentinel
	return dirty
}

func (c *refLRU) Resident() []Line {
	var out []Line
	for n := c.sentinel.next; n != &c.sentinel; n = n.next {
		out = append(out, n.line)
	}
	return out
}

func (c *refLRU) pushFront(n *refNode) {
	n.prev, n.next = &c.sentinel, c.sentinel.next
	n.prev.next, n.next.prev = n, n
}

func (c *refLRU) unlink(n *refNode) {
	n.prev.next, n.next.prev = n.next, n.prev
}

func (c *refLRU) moveToFront(n *refNode) {
	if c.sentinel.next != n {
		c.unlink(n)
		c.pushFront(n)
	}
}

type refLRUHierarchy struct {
	shared *refLRU
	dist   []*refLRU
	memWB  uint64
}

func newRefLRUHierarchy(p, sharedCap, distCap int) *refLRUHierarchy {
	h := &refLRUHierarchy{shared: newRefLRU(sharedCap), dist: make([]*refLRU, p)}
	for i := range h.dist {
		h.dist[i] = newRefLRU(distCap)
	}
	return h
}

func (h *refLRUHierarchy) Read(core int, l Line)  { h.access(core, l, false) }
func (h *refLRUHierarchy) Write(core int, l Line) { h.access(core, l, true) }

func (h *refLRUHierarchy) access(core int, l Line, write bool) {
	d := h.dist[core]
	if d.Touch(l) {
		if write {
			d.MarkDirty(l)
		}
		return
	}
	h.SharedRead(l)
	if ev, evicted := d.Insert(l); evicted && ev.Dirty {
		if !h.shared.MarkDirty(ev.Line) {
			panic(fmt.Sprintf("cache: inclusion violated, %v dirty in core %d but absent from shared cache",
				ev.Line, core))
		}
	}
	if write {
		d.MarkDirty(l)
	}
}

func (h *refLRUHierarchy) SharedRead(l Line) {
	if !h.shared.Touch(l) {
		if ev, evicted := h.shared.Insert(l); evicted {
			dirty := ev.Dirty
			for _, d := range h.dist {
				if wd, present := d.Invalidate(ev.Line); present && wd {
					dirty = true
				}
			}
			if dirty {
				h.memWB++
			}
		}
	}
}

func (h *refLRUHierarchy) Flush() uint64 {
	dirty := make(map[Line]bool)
	for _, ev := range h.shared.Flush() {
		dirty[ev.Line] = true
	}
	for _, d := range h.dist {
		for _, ev := range d.Flush() {
			dirty[ev.Line] = true
		}
	}
	n := uint64(len(dirty))
	h.memWB += n
	return n
}

func (h *refLRUHierarchy) CheckInclusion() error {
	for c, d := range h.dist {
		for _, l := range d.Resident() {
			if !h.shared.Contains(l) {
				return fmt.Errorf("cache: line %v in core %d but not in shared cache", l, c)
			}
		}
	}
	return nil
}

type refIdeal struct {
	capacity int
	resident map[Line]bool // line → dirty flag
	stats    Stats
}

func newRefIdeal(capacity int) *refIdeal {
	return &refIdeal{capacity: capacity, resident: make(map[Line]bool)}
}

func (c *refIdeal) Contains(l Line) bool { _, ok := c.resident[l]; return ok }

func (c *refIdeal) Load(l Line) error {
	if _, ok := c.resident[l]; ok {
		return fmt.Errorf("cache: ideal load of resident line %v", l)
	}
	if len(c.resident) >= c.capacity {
		return fmt.Errorf("cache: ideal cache full (capacity %d) loading %v", c.capacity, l)
	}
	c.resident[l] = false
	c.stats.Misses++
	return nil
}

func (c *refIdeal) Reference(l Line) error {
	if _, ok := c.resident[l]; !ok {
		return fmt.Errorf("cache: ideal reference to non-resident line %v", l)
	}
	c.stats.Hits++
	return nil
}

func (c *refIdeal) MarkDirty(l Line) error {
	if _, ok := c.resident[l]; !ok {
		return fmt.Errorf("cache: ideal dirty mark on non-resident line %v", l)
	}
	c.resident[l] = true
	return nil
}

func (c *refIdeal) IsDirty(l Line) bool { return c.resident[l] }

func (c *refIdeal) Evict(l Line) (bool, error) {
	d, ok := c.resident[l]
	if !ok {
		return false, fmt.Errorf("cache: ideal evict of non-resident line %v", l)
	}
	delete(c.resident, l)
	c.stats.Evictions++
	if d {
		c.stats.WriteBacks++
	}
	return d, nil
}

// Flush returns the dirty lines in map order, which is unspecified.
func (c *refIdeal) Flush() []Evicted {
	var dirty []Evicted
	for l, d := range c.resident {
		c.stats.Evictions++
		if d {
			c.stats.WriteBacks++
			dirty = append(dirty, Evicted{Line: l, Dirty: true})
		}
	}
	c.resident = make(map[Line]bool)
	return dirty
}

// Resident returns the resident lines in map order, which is
// unspecified.
func (c *refIdeal) Resident() []Line {
	var out []Line
	for l := range c.resident {
		out = append(out, l)
	}
	return out
}

type refIdealHierarchy struct {
	shared  []*refIdeal
	dist    []*refIdeal
	memWB   uint64
	icStage [][]uint64
	icWB    [][]uint64
}

func newRefIdealHierarchy(p, chips, sharedCap, distCap int) *refIdealHierarchy {
	h := &refIdealHierarchy{
		shared:  make([]*refIdeal, chips),
		dist:    make([]*refIdeal, p),
		icStage: make([][]uint64, chips),
		icWB:    make([][]uint64, chips),
	}
	for i := range h.shared {
		h.shared[i] = newRefIdeal(sharedCap)
		h.icStage[i] = make([]uint64, chips)
		h.icWB[i] = make([]uint64, chips)
	}
	for i := range h.dist {
		h.dist[i] = newRefIdeal(distCap)
	}
	return h
}

func (h *refIdealHierarchy) chipOf(core int) int { return core / (len(h.dist) / len(h.shared)) }

func (h *refIdealHierarchy) LoadSharedChip(chip int, l Line) error {
	if chip < 0 || chip >= len(h.shared) {
		return fmt.Errorf("cache: shared load of %v on chip %d of %d", l, chip, len(h.shared))
	}
	return h.shared[chip].Load(l)
}

func (h *refIdealHierarchy) EvictSharedChip(chip int, l Line) error {
	if chip < 0 || chip >= len(h.shared) {
		return fmt.Errorf("cache: shared evict of %v on chip %d of %d", l, chip, len(h.shared))
	}
	for c, d := range h.dist {
		if d.Contains(l) {
			return fmt.Errorf("cache: evicting %v from shared cache while resident in core %d", l, c)
		}
	}
	dirty, err := h.shared[chip].Evict(l)
	if err != nil {
		return err
	}
	if dirty {
		h.memWB++
	}
	return nil
}

func (h *refIdealHierarchy) LoadDistributedFrom(core, home int, l Line) error {
	if home < 0 || home >= len(h.shared) {
		return fmt.Errorf("cache: core %d loading %v from chip %d of %d", core, l, home, len(h.shared))
	}
	if !h.shared[home].Contains(l) {
		return fmt.Errorf("cache: core %d loading %v not resident in chip %d's shared cache", core, l, home)
	}
	if err := h.dist[core].Load(l); err != nil {
		return err
	}
	if user := h.chipOf(core); user != home {
		h.icStage[home][user]++
	}
	return nil
}

func (h *refIdealHierarchy) EvictDistributedTo(core, home int, l Line) error {
	if home < 0 || home >= len(h.shared) {
		return fmt.Errorf("cache: core %d evicting %v to chip %d of %d", core, l, home, len(h.shared))
	}
	dirty, err := h.dist[core].Evict(l)
	if err != nil {
		return err
	}
	if dirty {
		if err := h.shared[home].MarkDirty(l); err != nil {
			return err
		}
		if user := h.chipOf(core); user != home {
			h.icWB[home][user]++
		}
	}
	return nil
}

func (h *refIdealHierarchy) Reference(core int, l Line) error { return h.dist[core].Reference(l) }

func (h *refIdealHierarchy) WriteDistributed(core int, l Line) error {
	if err := h.dist[core].Reference(l); err != nil {
		return err
	}
	return h.dist[core].MarkDirty(l)
}

func (h *refIdealHierarchy) WriteShared(l Line) error {
	for _, s := range h.shared {
		if s.Contains(l) {
			return s.MarkDirty(l)
		}
	}
	return h.shared[0].MarkDirty(l)
}

func (h *refIdealHierarchy) Flush() uint64 {
	dirty := make(map[Line]bool)
	for _, c := range append(append([]*refIdeal(nil), h.dist...), h.shared...) {
		for _, ev := range c.Flush() {
			dirty[ev.Line] = true
		}
	}
	n := uint64(len(dirty))
	h.memWB += n
	return n
}
