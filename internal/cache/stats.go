// Package cache implements the multicore cache simulator of the paper's
// §4: fully-associative caches holding q×q matrix blocks, with two data
// replacement policies (LRU and IDEAL), organised as an inclusive
// two-level hierarchy (one shared cache above p distributed caches).
//
// The simulator "basically counts the number of cache misses in each
// cache level". Lines are matrix.BlockCoord values, capacities are in
// blocks — exactly the units the paper uses (CS and CD). A hierarchy
// numbers each access's line once through one matrix.BlockIndex shared
// by all its levels, and every level finds the line through a slot
// table indexed by that dense ID: an LRU level its recency-list node
// (linked by int32 indices), an IDEAL level its entry in the resident
// list. The Line-keyed methods of LRU and Ideal resolve the line
// through the same index.
//
// All types in this package are single-goroutine by design: the
// simulation driver interleaves per-core access streams deterministically
// so that every counter is exactly reproducible. (Real multi-goroutine
// execution lives in internal/parallel.)
package cache

import "fmt"

// Stats aggregates the event counters of one cache instance.
type Stats struct {
	Hits       uint64 // accesses satisfied by this cache
	Misses     uint64 // accesses that had to go to the level below
	Evictions  uint64 // lines removed to make room
	WriteBacks uint64 // dirty lines pushed to the level below on eviction
	Invalids   uint64 // lines removed by back-invalidation (inclusion)
}

// Accesses returns the total number of accesses observed.
func (s Stats) Accesses() uint64 { return s.Hits + s.Misses }

// HitRate returns the fraction of accesses that hit, or 0 for no accesses.
func (s Stats) HitRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Hits) / float64(a)
	}
	return 0
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Hits += other.Hits
	s.Misses += other.Misses
	s.Evictions += other.Evictions
	s.WriteBacks += other.WriteBacks
	s.Invalids += other.Invalids
}

// String renders the counters compactly.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d evict=%d wb=%d inval=%d",
		s.Hits, s.Misses, s.Evictions, s.WriteBacks, s.Invalids)
}
