package matrix

import "fmt"

// BlockIndex numbers blocks densely in first-sight order: the first
// block ID meets gets 0, the next new one 1, and so on, so per-block
// state can live in slices indexed by ID instead of maps keyed by
// BlockCoord. Blocks with small non-negative coordinates resolve through
// a row-major grid of IDs per matrix that grows lazily with the
// coordinates seen; a block whose grid would be too sparse (negative or
// far-out coordinates) falls back to a map. Where a block is stored
// never changes its ID. The zero value is an empty index.
type BlockIndex struct {
	grids    []blockGrid // by MatrixID
	fallback map[BlockCoord]int32
	n        int
}

// blockGrid holds one matrix's IDs, row-major, as ID+1 per cell, with 0
// for a block not yet numbered. A block inside the grid's bounds never
// lives in the fallback map.
type blockGrid struct {
	ids        []int32
	rows, cols int
}

// Grid bounds: a grid's rows and columns stay below gridMaxDim (so a
// cell count fits a 32-bit int), and its cell count below the larger of
// gridMinCells and gridSlack cells per numbered block, so a few far-out
// blocks cannot blow it up.
const (
	gridMaxDim   = 1 << 15
	gridMinCells = 1 << 16
	gridSlack    = 16
)

// Len returns the number of blocks numbered so far; IDs run over
// [0, Len()).
func (x *BlockIndex) Len() int { return x.n }

// ID returns b's ID, numbering b on first sight; fresh reports that it
// did, so the caller can record the block against its new ID.
func (x *BlockIndex) ID(b BlockCoord) (id int, fresh bool) {
	if int(b.Matrix) < len(x.grids) {
		g := &x.grids[b.Matrix]
		if uint(b.Row) < uint(g.rows) && uint(b.Col) < uint(g.cols) {
			cell := &g.ids[b.Row*g.cols+b.Col]
			if *cell != 0 {
				return int(*cell) - 1, false
			}
			*cell = x.next() + 1
			return x.n - 1, true
		}
	}
	return x.idOutside(b)
}

// Lookup returns b's ID if b has been numbered. It never numbers b.
func (x *BlockIndex) Lookup(b BlockCoord) (id int, ok bool) {
	if int(b.Matrix) < len(x.grids) {
		g := &x.grids[b.Matrix]
		if uint(b.Row) < uint(g.rows) && uint(b.Col) < uint(g.cols) {
			v := g.ids[b.Row*g.cols+b.Col]
			return int(v) - 1, v != 0
		}
	}
	v, ok := x.fallback[b]
	return int(v), ok
}

// next hands out the next ID.
func (x *BlockIndex) next() int32 {
	if x.n >= 1<<31-1 {
		panic(fmt.Sprintf("matrix: block index full at %d blocks", x.n))
	}
	x.n++
	return int32(x.n - 1)
}

// idOutside numbers or finds a block outside its matrix's grid: it
// grows the grid to cover b when the bounds allow, and otherwise uses
// the fallback map.
func (x *BlockIndex) idOutside(b BlockCoord) (int, bool) {
	if x.grow(b) {
		return x.ID(b)
	}
	if id, ok := x.fallback[b]; ok {
		return int(id), false
	}
	if x.fallback == nil {
		x.fallback = make(map[BlockCoord]int32)
	}
	id := x.next()
	x.fallback[b] = id
	return int(id), true
}

// grow widens b's matrix grid, at power-of-two sizes, to cover b, and
// moves the fallback blocks it now covers into it. It reports false,
// changing nothing, when the grown grid would break the bounds.
func (x *BlockIndex) grow(b BlockCoord) bool {
	if b.Row < 0 || b.Col < 0 || b.Row >= gridMaxDim || b.Col >= gridMaxDim {
		return false
	}
	var g blockGrid
	if int(b.Matrix) < len(x.grids) {
		g = x.grids[b.Matrix]
	}
	rows, cols := max(g.rows, ceilPow2(b.Row+1)), max(g.cols, ceilPow2(b.Col+1))
	if rows*cols > max(gridMinCells, gridSlack*(x.n+1)) {
		return false
	}
	ids := make([]int32, rows*cols)
	for r := 0; r < g.rows; r++ {
		copy(ids[r*cols:], g.ids[r*g.cols:(r+1)*g.cols])
	}
	for int(b.Matrix) >= len(x.grids) {
		x.grids = append(x.grids, blockGrid{})
	}
	x.grids[b.Matrix] = blockGrid{ids: ids, rows: rows, cols: cols}
	for fb, id := range x.fallback {
		if fb.Matrix == b.Matrix && uint(fb.Row) < uint(rows) && uint(fb.Col) < uint(cols) {
			ids[fb.Row*cols+fb.Col] = id + 1
			delete(x.fallback, fb)
		}
	}
	return true
}

// ceilPow2 returns the smallest power of two ≥ n, for n ≥ 1.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
