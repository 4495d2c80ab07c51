package matrix

import (
	"math/rand"
	"testing"
)

// refNumber is the map-keyed first-sight numbering BlockIndex must
// reproduce.
type refNumber map[BlockCoord]int

func (r refNumber) id(b BlockCoord) (int, bool) {
	if id, ok := r[b]; ok {
		return id, false
	}
	r[b] = len(r)
	return r[b], true
}

// checkID numbers b in both indexes and requires the same answer.
func checkID(t *testing.T, x *BlockIndex, ref refNumber, b BlockCoord) int {
	t.Helper()
	id, fresh := x.ID(b)
	wantID, wantFresh := ref.id(b)
	if id != wantID || fresh != wantFresh {
		t.Fatalf("ID(%v) = %d, %v; reference %d, %v", b, id, fresh, wantID, wantFresh)
	}
	if x.Len() != len(ref) {
		t.Fatalf("Len() = %d after %v, reference %d", x.Len(), b, len(ref))
	}
	return id
}

func TestBlockIndexMatchesFirstSightMap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	coord := func() int {
		switch rng.Intn(6) {
		case 0:
			return -1 - rng.Intn(3)
		case 1:
			return 1<<30 + rng.Intn(2)
		case 2:
			return gridMaxDim - 4000 + rng.Intn(8000)
		default:
			return rng.Intn(40)
		}
	}
	var x BlockIndex
	ref := refNumber{}
	for i := 0; i < 20000; i++ {
		b := BlockCoord{Matrix: MatrixID(rng.Intn(20)), Row: coord(), Col: coord()}
		checkID(t, &x, ref, b)
	}
	for b, want := range ref {
		if id, ok := x.Lookup(b); !ok || id != want {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", b, id, ok, want)
		}
	}
}

func TestBlockIndexLookupNeverNumbers(t *testing.T) {
	var x BlockIndex
	for _, b := range []BlockCoord{{MatA, 0, 0}, {MatC, 5, 9}, {MatB, -1, 2}, {40, 1 << 30, 0}} {
		if _, ok := x.Lookup(b); ok {
			t.Fatalf("Lookup(%v) found a block never numbered", b)
		}
	}
	if x.Len() != 0 || len(x.grids) != 0 || len(x.fallback) != 0 {
		t.Fatalf("Lookup numbered or allocated: Len %d, %d grids, %d fallback", x.Len(), len(x.grids), len(x.fallback))
	}
	x.ID(BlockCoord{MatB, 3, 3})
	if _, ok := x.Lookup(BlockCoord{MatB, 2, 2}); ok {
		t.Fatal("Lookup found an unnumbered block inside the grid")
	}
	if id, fresh := x.ID(BlockCoord{MatB, 2, 2}); id != 1 || !fresh {
		t.Fatalf("ID after Lookups = %d, %v; want 1, true", id, fresh)
	}
}

func TestBlockIndexGrowthKeepsIDs(t *testing.T) {
	var x BlockIndex
	ref := refNumber{}
	for r := 0; r < 3; r++ {
		for c := 0; c < 5; c++ {
			checkID(t, &x, ref, BlockCoord{MatC, r, c})
		}
	}
	g := x.grids[MatC]
	// Grow in rows, then in columns, then in both, then a new matrix.
	for _, b := range []BlockCoord{{MatC, 9, 0}, {MatC, 0, 33}, {MatC, 100, 70}, {MatA, 2, 2}} {
		checkID(t, &x, ref, b)
	}
	if ng := x.grids[MatC]; ng.rows <= g.rows || ng.cols <= g.cols {
		t.Fatalf("grid did not grow: %dx%d → %dx%d", g.rows, g.cols, ng.rows, ng.cols)
	}
	if len(x.fallback) != 0 {
		t.Fatalf("%d blocks fell back although the grid could hold them", len(x.fallback))
	}
	for b, want := range ref {
		if id, ok := x.Lookup(b); !ok || id != want {
			t.Fatalf("after growth Lookup(%v) = %d, %v; want %d", b, id, ok, want)
		}
	}
}

func TestBlockIndexFallback(t *testing.T) {
	var x BlockIndex
	ref := refNumber{}
	far := []BlockCoord{
		{MatA, -1, 0}, {MatA, 0, -1}, {MatA, gridMaxDim, 0}, {MatA, 0, 1 << 30},
		{MatB, 300, 300}, // 512×512 cells exceed the bound while few blocks are numbered
	}
	for _, b := range far {
		checkID(t, &x, ref, b)
	}
	if len(x.fallback) != len(far) {
		t.Fatalf("%d of %d far blocks in the fallback map", len(x.fallback), len(far))
	}
	for _, b := range far {
		checkID(t, &x, ref, b) // found again, not renumbered
	}
	// Number enough blocks that a 512×512 grid fits the bound, then
	// grow B's grid over the fallback block at (300, 300): it moves
	// into the grid and keeps its ID.
	for r := 0; r < 128; r++ {
		for c := 0; c < 128; c++ {
			checkID(t, &x, ref, BlockCoord{MatC, r, c})
		}
	}
	checkID(t, &x, ref, BlockCoord{MatB, 300, 301})
	if _, ok := x.fallback[BlockCoord{MatB, 300, 300}]; ok {
		t.Fatal("growth left a covered block in the fallback map")
	}
	if len(x.fallback) != len(far)-1 {
		t.Fatalf("fallback holds %d blocks, want %d", len(x.fallback), len(far)-1)
	}
	for b, want := range ref {
		if id, ok := x.Lookup(b); !ok || id != want {
			t.Fatalf("Lookup(%v) = %d, %v; want %d", b, id, ok, want)
		}
	}
}

// TestBlockIndexNoAliasing numbers pairs of blocks that a uint64 key
// of 4 bits of matrix and 30 bits each of row and column merges: the
// index must tell every pair apart.
func TestBlockIndexNoAliasing(t *testing.T) {
	pairs := [][2]BlockCoord{
		{{16, 0, 0}, {MatA, 0, 0}},         // the matrix shift overflows
		{{MatA, 1 << 30, 0}, {MatB, 0, 0}}, // the row spills into the matrix bits
		{{MatA, 0, 1 << 30}, {MatA, 1, 0}}, // the column spills into the row bits
		{{MatA, 0, -1}, {MatB, 0, -1}},     // a negative column sets every bit
		{{MatA, -1, 0}, {MatC, -1, 0}},     // a negative row sets the matrix bits
		{{MatC, -1, -1}, {15, 1<<30 - 1, 1<<30 - 1}},
	}
	for _, p := range pairs {
		var x BlockIndex
		a, _ := x.ID(p[0])
		b, fresh := x.ID(p[1])
		if a == b || !fresh {
			t.Fatalf("%v and %v share ID %d", p[0], p[1], a)
		}
	}
}
