package cache

import (
	"fmt"

	"repro/internal/matrix"
)

// Line is the unit of caching: one q×q matrix block.
type Line = matrix.BlockCoord

// lineID returns l's ID in x, numbering l on first sight.
func lineID(x *matrix.BlockIndex, l Line) int32 {
	id, _ := x.ID(l)
	return int32(id)
}

// growSlots extends a slot table to cover line id, zero-filling the new
// entries and at least doubling the table, so growth is amortised.
func growSlots(s []int32, id int32) []int32 {
	if int(id) < len(s) {
		return s
	}
	t := make([]int32, max(int(id)+1, 2*len(s)))
	copy(t, s)
	return t
}

// node is an entry in the intrusive recency list of an LRU cache,
// linked by indices into LRU.nodes.
type node struct {
	line       Line
	id         int32
	prev, next int32
	dirty      bool
}

// LRU is a fully-associative cache with least-recently-used replacement,
// the "classical LRU policy" of the paper's §4.1. The zero value is not
// usable; construct with NewLRU.
type LRU struct {
	capacity int
	index    *matrix.BlockIndex // numbers lines; shared by a hierarchy's levels
	// nodes[0] is the list sentinel: its next is the most recently used
	// node, its prev the least recently used one.
	nodes []node
	// slot maps a line ID to its node's index, 0 when not resident.
	slot []int32
	// free chains recycled nodes through their next links (0 ends it),
	// so steady-state eviction/insertion allocates nothing.
	free  int32
	n     int // resident lines
	stats Stats
}

// NewLRU returns an empty LRU cache holding at most capacity lines.
func NewLRU(capacity int) *LRU { return newLRU(capacity, new(matrix.BlockIndex)) }

func newLRU(capacity int, index *matrix.BlockIndex) *LRU {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: LRU capacity %d must be positive", capacity))
	}
	return &LRU{capacity: capacity, index: index, nodes: make([]node, 1)}
}

// Capacity returns the maximum number of lines the cache can hold.
func (c *LRU) Capacity() int { return c.capacity }

// Len returns the number of lines currently resident.
func (c *LRU) Len() int { return c.n }

// Stats returns a copy of the event counters.
func (c *LRU) Stats() Stats { return c.stats }

// Contains reports residency without affecting recency or counters.
func (c *LRU) Contains(l Line) bool {
	id, ok := c.index.Lookup(l)
	return ok && c.at(int32(id)) != 0
}

// Touch records an access to l. If resident, it becomes most recently
// used and Touch reports a hit; otherwise Touch reports a miss and leaves
// the cache unchanged (the caller decides whether to Insert).
func (c *LRU) Touch(l Line) bool { return c.touch(lineID(c.index, l)) }

// Evicted describes a line removed from a cache, and whether it was dirty
// (needing a write-back to the level below).
type Evicted struct {
	Line  Line
	Dirty bool
}

// Insert makes l resident and most recently used. If the cache is full,
// the least recently used line is evicted and returned. Inserting an
// already-resident line only refreshes its recency.
func (c *LRU) Insert(l Line) (ev Evicted, evicted bool) {
	_, ev, evicted = c.insert(lineID(c.index, l), l)
	return ev, evicted
}

// MarkDirty flags l as modified; a later eviction will report a
// write-back. Marking a non-resident line is a no-op and returns false.
func (c *LRU) MarkDirty(l Line) bool {
	id, ok := c.index.Lookup(l)
	return ok && c.markDirty(int32(id))
}

// IsDirty reports whether l is resident and dirty.
func (c *LRU) IsDirty(l Line) bool {
	id, ok := c.index.Lookup(l)
	if !ok {
		return false
	}
	i := c.at(int32(id))
	return i != 0 && c.nodes[i].dirty
}

// Invalidate removes l without counting an eviction (used for
// back-invalidation when an inclusive parent level drops the line). It
// returns the line's dirty state so the caller can merge it upward.
func (c *LRU) Invalidate(l Line) (wasDirty, wasPresent bool) {
	id, ok := c.index.Lookup(l)
	if !ok {
		return false, false
	}
	return c.invalidate(int32(id))
}

// Flush removes every line, returning the dirty ones in eviction
// (LRU-first) order.
func (c *LRU) Flush() []Evicted {
	var dirty []Evicted
	c.drain(func(_ int32, l Line, d bool) {
		if d {
			dirty = append(dirty, Evicted{Line: l, Dirty: true})
		}
	})
	return dirty
}

// Resident returns all resident lines in most-recently-used-first order.
// Intended for tests and debugging.
func (c *LRU) Resident() []Line {
	out := make([]Line, 0, c.n)
	for i := c.nodes[0].next; i != 0; i = c.nodes[i].next {
		out = append(out, c.nodes[i].line)
	}
	return out
}

// at returns the node index of line id, 0 when not resident.
func (c *LRU) at(id int32) int32 {
	if int(id) < len(c.slot) {
		return c.slot[id]
	}
	return 0
}

// touch is Touch by line ID.
func (c *LRU) touch(id int32) bool {
	i := c.at(id)
	if i == 0 {
		c.stats.Misses++
		return false
	}
	c.stats.Hits++
	c.moveToFront(i)
	return true
}

// insert is Insert of line l, whose ID is id; it also returns the
// evicted line's ID.
func (c *LRU) insert(id int32, l Line) (victim int32, ev Evicted, evicted bool) {
	if i := c.at(id); i != 0 {
		c.moveToFront(i)
		return 0, Evicted{}, false
	}
	var i int32
	if c.n >= c.capacity {
		i = c.nodes[0].prev
		c.unlink(i)
		n := &c.nodes[i]
		victim, ev, evicted = n.id, Evicted{Line: n.line, Dirty: n.dirty}, true
		c.slot[victim] = 0
		c.stats.Evictions++
		if ev.Dirty {
			c.stats.WriteBacks++
		}
	} else {
		i = c.newNode()
		c.n++
	}
	c.nodes[i] = node{line: l, id: id}
	c.slot = growSlots(c.slot, id)
	c.slot[id] = i
	c.pushFront(i)
	return victim, ev, evicted
}

// newNode takes a node from the free chain or appends one.
func (c *LRU) newNode() int32 {
	if i := c.free; i != 0 {
		c.free = c.nodes[i].next
		return i
	}
	c.nodes = append(c.nodes, node{})
	return int32(len(c.nodes) - 1)
}

// markDirty is MarkDirty by line ID.
func (c *LRU) markDirty(id int32) bool {
	i := c.at(id)
	if i != 0 {
		c.nodes[i].dirty = true
	}
	return i != 0
}

// invalidate is Invalidate by line ID.
func (c *LRU) invalidate(id int32) (wasDirty, wasPresent bool) {
	i := c.at(id)
	if i == 0 {
		return false, false
	}
	c.unlink(i)
	c.slot[id] = 0
	c.n--
	c.stats.Invalids++
	wasDirty = c.nodes[i].dirty
	c.nodes[i].next = c.free
	c.free = i
	return wasDirty, true
}

// drain empties the cache, visiting every line it held in eviction
// (LRU-first) order with its ID and dirty state.
func (c *LRU) drain(visit func(id int32, l Line, dirty bool)) {
	for i := c.nodes[0].prev; i != 0; i = c.nodes[i].prev {
		n := &c.nodes[i]
		c.slot[n.id] = 0
		visit(n.id, n.line, n.dirty)
	}
	c.nodes = c.nodes[:1]
	c.nodes[0] = node{}
	c.free = 0
	c.n = 0
}

func (c *LRU) pushFront(i int32) {
	nodes := c.nodes
	head := nodes[0].next
	nodes[i].prev, nodes[i].next = 0, head
	nodes[head].prev = i
	nodes[0].next = i
}

// unlink takes node i out of the recency list, leaving its own links
// stale for pushFront or the free chain to overwrite.
func (c *LRU) unlink(i int32) {
	nodes := c.nodes
	prev, next := nodes[i].prev, nodes[i].next
	nodes[prev].next = next
	nodes[next].prev = prev
}

func (c *LRU) moveToFront(i int32) {
	if c.nodes[0].next == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}
