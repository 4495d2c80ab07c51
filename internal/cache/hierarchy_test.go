package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/matrix"
)

func TestLRUHierarchyConstruction(t *testing.T) {
	if _, err := NewLRUHierarchy(0, 8, 2); err == nil {
		t.Fatal("p=0 must fail")
	}
	if _, err := NewLRUHierarchy(4, 7, 2); err == nil {
		t.Fatal("CS < p*CD must fail (inclusion)")
	}
	h, err := NewLRUHierarchy(4, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.Cores() != 4 {
		t.Fatalf("Cores = %d", h.Cores())
	}
}

func TestLRUHierarchyMissPropagation(t *testing.T) {
	h, _ := NewLRUHierarchy(2, 8, 2)
	a := ln(matrix.MatA, 0, 0)

	h.Read(0, a) // cold: misses in both levels
	if h.MD(0) != 1 || h.MS() != 1 {
		t.Fatalf("cold read: MD0=%d MS=%d, want 1/1", h.MD(0), h.MS())
	}

	h.Read(0, a) // hit in distributed cache, no new misses
	if h.MD(0) != 1 || h.MS() != 1 {
		t.Fatalf("warm read added misses: MD0=%d MS=%d", h.MD(0), h.MS())
	}

	h.Read(1, a) // core 1 misses privately but hits in shared
	if h.MD(1) != 1 || h.MS() != 1 {
		t.Fatalf("cross-core read: MD1=%d MS=%d, want 1/1", h.MD(1), h.MS())
	}
}

func TestLRUHierarchyMetrics(t *testing.T) {
	h, _ := NewLRUHierarchy(2, 8, 2)
	h.Read(0, ln(matrix.MatA, 0, 0))
	h.Read(0, ln(matrix.MatA, 0, 1))
	h.Read(1, ln(matrix.MatB, 0, 0))
	if h.MDMax() != 2 {
		t.Fatalf("MDMax = %d, want 2", h.MDMax())
	}
	if h.MDSum() != 3 {
		t.Fatalf("MDSum = %d, want 3", h.MDSum())
	}
}

func TestLRUHierarchyBackInvalidation(t *testing.T) {
	// Shared cache of 2 lines, one core with 2 lines. Filling the shared
	// cache with two new lines evicts an older one; the distributed copy
	// must be invalidated to preserve inclusion.
	h, _ := NewLRUHierarchy(1, 2, 2)
	a, b, c := ln(matrix.MatA, 0, 0), ln(matrix.MatB, 0, 0), ln(matrix.MatC, 0, 0)
	h.Read(0, a)
	h.Read(0, b)
	h.Read(0, c) // evicts a from shared → must back-invalidate from core 0
	if h.Distributed(0).Contains(a) {
		t.Fatal("back-invalidation failed: stale line in distributed cache")
	}
	if err := h.CheckInclusion(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUHierarchyDirtyBackInvalidationWritesBack(t *testing.T) {
	h, _ := NewLRUHierarchy(1, 2, 2)
	a, b, c := ln(matrix.MatA, 0, 0), ln(matrix.MatB, 0, 0), ln(matrix.MatC, 0, 0)
	h.Write(0, a) // dirty in distributed cache only
	h.Read(0, b)
	h.Read(0, c) // evicts a from shared; dirty private copy → memory write-back
	if h.MemoryWriteBacks() != 1 {
		t.Fatalf("memory writebacks = %d, want 1", h.MemoryWriteBacks())
	}
}

func TestLRUHierarchyDistributedEvictionMergesDirty(t *testing.T) {
	// Distributed cache of 1 line: writing a then reading b evicts dirty
	// a into the shared cache, which must now hold it dirty.
	h, _ := NewLRUHierarchy(1, 4, 1)
	a, b := ln(matrix.MatA, 0, 0), ln(matrix.MatB, 0, 0)
	h.Write(0, a)
	h.Read(0, b)
	if !h.Shared().IsDirty(a) {
		t.Fatal("dirty distributed eviction must dirty the shared copy")
	}
	// Flushing should then write it to memory exactly once.
	if got := h.Flush(); got != 1 && got != 2 {
		// b is clean; only a is dirty → exactly 1.
		t.Fatalf("flush writebacks = %d", got)
	}
	if h.MemoryWriteBacks() != 1 {
		t.Fatalf("memory writebacks = %d, want 1", h.MemoryWriteBacks())
	}
}

func TestLRUHierarchyFlushEmptiesEverything(t *testing.T) {
	h, _ := NewLRUHierarchy(2, 8, 2)
	for i := 0; i < 6; i++ {
		h.Write(i%2, ln(matrix.MatC, i, 0))
	}
	h.Flush()
	if h.Shared().Len() != 0 {
		t.Fatal("shared cache not empty after flush")
	}
	for c := 0; c < 2; c++ {
		if h.Distributed(c).Len() != 0 {
			t.Fatal("distributed cache not empty after flush")
		}
	}
}

// Property: inclusion holds after arbitrary access sequences, and no
// cache ever exceeds its capacity.
func TestLRUHierarchyInclusionProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		h, err := NewLRUHierarchy(3, 9, 2)
		if err != nil {
			return false
		}
		for _, op := range ops {
			core := int(op % 3)
			l := ln(matrix.MatrixID(op/3%3), int(op/9%4), int(op/36%4))
			if op%2 == 0 {
				h.Read(core, l)
			} else {
				h.Write(core, l)
			}
		}
		if h.Shared().Len() > h.Shared().Capacity() {
			return false
		}
		for c := 0; c < 3; c++ {
			if h.Distributed(c).Len() > h.Distributed(c).Capacity() {
				return false
			}
		}
		return h.CheckInclusion() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestIdealHierarchyProtocol(t *testing.T) {
	h, err := NewIdealHierarchy(2, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	a := ln(matrix.MatA, 0, 0)

	if err := h.LoadDistributed(0, a); err == nil {
		t.Fatal("distributed load before shared load must fail (inclusion)")
	}
	if err := h.LoadShared(a); err != nil {
		t.Fatal(err)
	}
	if err := h.LoadDistributed(0, a); err != nil {
		t.Fatal(err)
	}
	if err := h.EvictShared(a); err == nil {
		t.Fatal("evicting shared line still held privately must fail")
	}
	if err := h.Reference(0, a); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteDistributed(0, a); err != nil {
		t.Fatal(err)
	}
	if err := h.EvictDistributed(0, a); err != nil {
		t.Fatal(err)
	}
	// Dirty private copy merged into shared cache.
	if !h.Shared().IsDirty(a) {
		t.Fatal("dirty merge on distributed eviction failed")
	}
	if err := h.EvictShared(a); err != nil {
		t.Fatal(err)
	}
	if h.MemoryWriteBacks() != 1 {
		t.Fatalf("memory writebacks = %d, want 1", h.MemoryWriteBacks())
	}
	if h.MS() != 1 || h.MD(0) != 1 || h.MDMax() != 1 || h.MDSum() != 1 {
		t.Fatalf("MS=%d MD=%d", h.MS(), h.MD(0))
	}
}

func TestIdealHierarchyConstruction(t *testing.T) {
	if _, err := NewIdealHierarchy(0, 4, 1); err == nil {
		t.Fatal("p=0 must fail")
	}
	if _, err := NewIdealHierarchy(4, 4, 2); err == nil {
		t.Fatal("CS < p*CD must fail")
	}
}

func TestIdealHierarchyWriteSharedAndFlush(t *testing.T) {
	h, _ := NewIdealHierarchy(1, 4, 1)
	a, b := ln(matrix.MatC, 0, 0), ln(matrix.MatC, 0, 1)
	if err := h.LoadShared(a); err != nil {
		t.Fatal(err)
	}
	if err := h.LoadShared(b); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteShared(a); err != nil {
		t.Fatal(err)
	}
	if err := h.LoadDistributed(0, b); err != nil {
		t.Fatal(err)
	}
	if err := h.WriteDistributed(0, b); err != nil {
		t.Fatal(err)
	}
	if got := h.Flush(); got != 2 {
		t.Fatalf("flush writebacks = %d, want 2 (both dirty)", got)
	}
	if h.Shared().Len() != 0 || h.Distributed(0).Len() != 0 {
		t.Fatal("caches not empty after flush")
	}
}

func TestIdealHierarchyCores(t *testing.T) {
	h, _ := NewIdealHierarchy(3, 12, 2)
	if h.Cores() != 3 {
		t.Fatalf("Cores = %d", h.Cores())
	}
}

// TestHierarchiesKeepAliasedLinesApart replays pairs of lines that a
// packed uint64 key (4 bits of matrix, 30 bits each of row and column)
// merged: each line of a pair must miss on its own.
func TestHierarchiesKeepAliasedLinesApart(t *testing.T) {
	pairs := [][2]Line{
		{ln(16, 0, 0), ln(matrix.MatA, 0, 0)},
		{ln(matrix.MatA, 1<<30, 0), ln(matrix.MatB, 0, 0)},
		{ln(matrix.MatA, 0, -1), ln(matrix.MatB, 0, -1)},
		{ln(matrix.MatC, -1, 3), ln(matrix.MatA, -1, 3)},
	}
	for _, p := range pairs {
		lru, _ := NewLRUHierarchy(1, 4, 2)
		lru.Read(0, p[0])
		lru.Read(0, p[1])
		if lru.MS() != 2 || lru.MD(0) != 2 {
			t.Fatalf("LRU: %v then %v: MS=%d MD=%d, want 2/2", p[0], p[1], lru.MS(), lru.MD(0))
		}
		ideal, _ := NewIdealHierarchy(1, 4, 2)
		if err := ideal.LoadShared(p[0]); err != nil {
			t.Fatal(err)
		}
		if err := ideal.LoadShared(p[1]); err != nil {
			t.Fatalf("IDEAL: %v after %v: %v", p[1], p[0], err)
		}
		if err := ideal.Reference(0, p[1]); err == nil {
			t.Fatalf("IDEAL: %v referenced without a load", p[1])
		}
	}
}
