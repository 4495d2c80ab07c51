package cache

import (
	"fmt"

	"repro/internal/matrix"
)

// Ideal is an explicitly managed, fully-associative cache: the IDEAL mode
// of the paper's simulator, in which "the user manually decides which
// data needs to be loaded/unloaded in a given cache". There is no
// replacement policy — loading into a full cache is an error, which keeps
// the algorithm implementations honest about their declared footprints
// (1+λ+λ² ≤ CS and friends).
type Ideal struct {
	capacity int
	index    *matrix.BlockIndex // numbers lines; shared by a hierarchy's levels
	// slot maps a line ID to 1 + its position in resident, 0 when not
	// resident.
	slot     []int32
	resident []idealLine
	stats    Stats
}

// idealLine is one resident line of an Ideal cache.
type idealLine struct {
	line  Line
	id    int32
	dirty bool
}

// NewIdeal returns an empty ideal cache holding at most capacity lines.
func NewIdeal(capacity int) *Ideal { return newIdeal(capacity, new(matrix.BlockIndex)) }

func newIdeal(capacity int, index *matrix.BlockIndex) *Ideal {
	if capacity <= 0 {
		panic(fmt.Sprintf("cache: Ideal capacity %d must be positive", capacity))
	}
	return &Ideal{capacity: capacity, index: index}
}

// Capacity returns the maximum number of lines the cache can hold.
func (c *Ideal) Capacity() int { return c.capacity }

// Len returns the number of lines currently resident.
func (c *Ideal) Len() int { return len(c.resident) }

// Stats returns a copy of the event counters. For an ideal cache each
// successful Load counts as one miss (one transfer from the level below)
// and each Reference as one hit.
func (c *Ideal) Stats() Stats { return c.stats }

// Contains reports residency.
func (c *Ideal) Contains(l Line) bool {
	id, ok := c.index.Lookup(l)
	return ok && c.at(int32(id)) != 0
}

// Load makes l resident, counting one transfer from the level below. It
// is an error to load into a full cache or to re-load a resident line —
// both indicate a bug in the managing algorithm.
func (c *Ideal) Load(l Line) error { return c.load(lineID(c.index, l), l) }

// Reference records a use of a resident line (a hit). It is an error to
// reference a non-resident line: under the ideal policy the algorithm
// must have loaded everything it touches.
func (c *Ideal) Reference(l Line) error { return c.reference(lineID(c.index, l), l) }

// MarkDirty flags a resident line as modified.
func (c *Ideal) MarkDirty(l Line) error { return c.markDirty(lineID(c.index, l), l) }

// IsDirty reports whether l is resident and dirty.
func (c *Ideal) IsDirty(l Line) bool {
	id, ok := c.index.Lookup(l)
	if !ok {
		return false
	}
	i := c.at(int32(id))
	return i != 0 && c.resident[i-1].dirty
}

// Evict removes l, reporting whether it was dirty. Evicting a
// non-resident line is an error.
func (c *Ideal) Evict(l Line) (dirty bool, err error) { return c.evict(lineID(c.index, l), l) }

// Flush evicts every resident line, returning the dirty ones in
// unspecified order.
func (c *Ideal) Flush() []Evicted {
	var dirty []Evicted
	c.drain(func(_ int32, l Line, d bool) {
		if d {
			dirty = append(dirty, Evicted{Line: l, Dirty: true})
		}
	})
	return dirty
}

// Resident returns the resident lines in unspecified order (for tests).
func (c *Ideal) Resident() []Line {
	out := make([]Line, len(c.resident))
	for i, r := range c.resident {
		out[i] = r.line
	}
	return out
}

// at returns 1 + line id's position in resident, 0 when not resident.
func (c *Ideal) at(id int32) int32 {
	if int(id) < len(c.slot) {
		return c.slot[id]
	}
	return 0
}

// load is Load of line l, whose ID is id.
func (c *Ideal) load(id int32, l Line) error {
	if c.at(id) != 0 {
		return fmt.Errorf("cache: ideal load of resident line %v", l)
	}
	if len(c.resident) >= c.capacity {
		return fmt.Errorf("cache: ideal cache full (capacity %d) loading %v", c.capacity, l)
	}
	c.resident = append(c.resident, idealLine{line: l, id: id})
	c.slot = growSlots(c.slot, id)
	c.slot[id] = int32(len(c.resident))
	c.stats.Misses++
	return nil
}

// reference is Reference of line l, whose ID is id.
func (c *Ideal) reference(id int32, l Line) error {
	if c.at(id) == 0 {
		return fmt.Errorf("cache: ideal reference to non-resident line %v", l)
	}
	c.stats.Hits++
	return nil
}

// markDirty is MarkDirty of line l, whose ID is id.
func (c *Ideal) markDirty(id int32, l Line) error {
	i := c.at(id)
	if i == 0 {
		return fmt.Errorf("cache: ideal dirty mark on non-resident line %v", l)
	}
	c.resident[i-1].dirty = true
	return nil
}

// evict is Evict of line l, whose ID is id. The last resident line
// takes the evicted one's position.
func (c *Ideal) evict(id int32, l Line) (dirty bool, err error) {
	i := c.at(id)
	if i == 0 {
		return false, fmt.Errorf("cache: ideal evict of non-resident line %v", l)
	}
	dirty = c.resident[i-1].dirty
	last := c.resident[len(c.resident)-1]
	c.resident[i-1] = last
	c.slot[last.id] = i
	c.resident = c.resident[:len(c.resident)-1]
	c.slot[id] = 0
	c.stats.Evictions++
	if dirty {
		c.stats.WriteBacks++
	}
	return dirty, nil
}

// drain evicts every resident line, visiting each with its ID and
// dirty state.
func (c *Ideal) drain(visit func(id int32, l Line, dirty bool)) {
	for _, r := range c.resident {
		c.stats.Evictions++
		if r.dirty {
			c.stats.WriteBacks++
		}
		c.slot[r.id] = 0
		visit(r.id, r.line, r.dirty)
	}
	c.resident = c.resident[:0]
}
