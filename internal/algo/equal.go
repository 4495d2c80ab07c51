package algo

import (
	"fmt"
	"math"

	"repro/internal/machine"
	"repro/internal/schedule"
)

// The Equal algorithms are the paper's adaptation of Toledo's out-of-core
// scheme ([8]): "one third of distributed caches is equally allocated to
// each loaded matrix sub-block". Since Toledo's algorithm addresses a
// single cache level, the paper declines it in two versions: SharedEqual
// tunes the equal split to the shared cache, DistributedEqual to the
// distributed caches.

// equalEdge returns the edge e of the square tiles used by an equal
// split of a cache with cap blocks into three thirds: e = ⌊√(cap/3)⌋.
func equalEdge(capBlocks int) int {
	if capBlocks < 3 {
		return 0
	}
	return int(math.Sqrt(float64(capBlocks) / 3))
}

// SharedEqual allocates one third of the shared cache to a square tile
// of each operand: an e×e block of C stays resident while e-deep panels
// of A and B stream through, e = ⌊√(CS/3)⌋. The tile update is split
// row-wise over the p cores, each holding one element of each matrix in
// its distributed cache (as in Algorithm 1's inner loop).
//
// Expected MS ≈ mn + 2mnz/e — the same shape as Algorithm 1 but with
// e ≈ √(CS/3) < λ ≈ √CS, i.e. a √3 higher asymptotic CCR.
type SharedEqual struct{}

// Name returns the figure label used in the paper.
func (SharedEqual) Name() string { return "Shared Equal" }

// Params returns the equal-split tile edge for a declared machine.
func (SharedEqual) Params(declared machine.Machine) (e int) {
	return equalEdge(declared.CS)
}

// Predict returns the Toledo-style closed form MS = mn + 2mnz/e. The
// distributed miss count has the same form as Algorithm 1's.
func (a SharedEqual) Predict(declared machine.Machine, w Workload) (ms, md float64, ok bool) {
	e := float64(a.Params(declared))
	if e < 1 {
		return 0, 0, false
	}
	mn := float64(w.M) * float64(w.N)
	mnz := w.Products()
	ms = mn + 2*mnz/e
	md = 2*mnz/float64(declared.P) + mnz/e
	return ms, md, true
}

// Schedule emits the SharedEqual loop nest.
func (a SharedEqual) Schedule(declared machine.Machine, w Workload) (*schedule.Program, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	e := a.Params(declared)
	if e < 1 {
		return nil, fmt.Errorf("algo: %s needs CS ≥ 3 declared blocks, got %d", a.Name(), declared.CS)
	}
	p := declared.P

	body := func(b schedule.Backend) {
		for i0 := 0; i0 < w.M; i0 += e {
			ilen := min(e, w.M-i0)
			for j0 := 0; j0 < w.N; j0 += e {
				jlen := min(e, w.N-j0)

				// The C tile occupies the first third for the whole k sweep.
				for bi := 0; bi < ilen; bi++ {
					for bj := 0; bj < jlen; bj++ {
						b.StageShared(lineC(i0+bi, j0+bj))
					}
				}
				for k0 := 0; k0 < w.Z; k0 += e {
					klen := min(e, w.Z-k0)
					// A panel and B panel fill the other two thirds.
					for bi := 0; bi < ilen; bi++ {
						for bk := 0; bk < klen; bk++ {
							b.StageShared(lineA(i0+bi, k0+bk))
						}
					}
					for bk := 0; bk < klen; bk++ {
						for bj := 0; bj < jlen; bj++ {
							b.StageShared(lineB(k0+bk, j0+bj))
						}
					}

					// Row-split tile update, element-wise at the distributed
					// level (footprint 3 blocks per core).
					b.Parallel(func(c int, ops schedule.CoreSink) {
						rlo, rhi := split(ilen, p, c)
						for bi := rlo; bi < rhi; bi++ {
							for bk := 0; bk < klen; bk++ {
								al := lineA(i0+bi, k0+bk)
								ops.Stage(al)
								for bj := 0; bj < jlen; bj++ {
									bl := lineB(k0+bk, j0+bj)
									cl := lineC(i0+bi, j0+bj)
									ops.Stage(bl)
									ops.Stage(cl)
									ops.Compute(i0+bi, j0+bj, k0+bk)
									ops.Unstage(cl)
									ops.Unstage(bl)
								}
								ops.Unstage(al)
							}
						}
					})

					for bi := 0; bi < ilen; bi++ {
						for bk := 0; bk < klen; bk++ {
							b.UnstageShared(lineA(i0+bi, k0+bk))
						}
					}
					for bk := 0; bk < klen; bk++ {
						for bj := 0; bj < jlen; bj++ {
							b.UnstageShared(lineB(k0+bk, j0+bj))
						}
					}
				}
				for bi := 0; bi < ilen; bi++ {
					for bj := 0; bj < jlen; bj++ {
						b.UnstageShared(lineC(i0+bi, j0+bj))
					}
				}
			}
		}
	}
	return &schedule.Program{
		Algorithm: a.Name(),
		Cores:     p,
		Params:    schedule.Params{Edge: e},
		Resources: resources(declared),
		Body:      body,
	}, nil
}

// DistributedEqual applies the equal-thirds split to each distributed
// cache: every core processes its own d×d tiles of C (d = ⌊√(CD/3)⌋)
// with d×d tiles of A and B streaming through its private cache. Tiles
// of C are assigned to cores 2-D cyclically; the shared cache stages the
// union of what the p cores hold, one cyclic round at a time.
//
// Expected MD ≈ mn/p + 2mnz/(pd) — the same shape as Algorithm 2 but
// with d ≈ √(CD/3) < µ ≈ √CD.
type DistributedEqual struct{}

// Name returns the figure label used in the paper.
func (DistributedEqual) Name() string { return "Distributed Equal" }

// Params returns the per-core equal-split tile edge.
func (DistributedEqual) Params(declared machine.Machine) (d int) {
	return equalEdge(declared.CD)
}

// Predict returns the Toledo-style closed forms at the distributed level.
func (a DistributedEqual) Predict(declared machine.Machine, w Workload) (ms, md float64, ok bool) {
	d := float64(a.Params(declared))
	if d < 1 {
		return 0, 0, false
	}
	gr, gc := declared.Grid()
	mn := float64(w.M) * float64(w.N)
	mnz := w.Products()
	p := float64(declared.P)
	md = mn/p + 2*mnz/(p*d)
	ms = mn + mnz*(1/(float64(gr)*d)+1/(float64(gc)*d))
	return ms, md, true
}

// Schedule emits the DistributedEqual loop nest.
func (a DistributedEqual) Schedule(declared machine.Machine, w Workload) (*schedule.Program, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	d := a.Params(declared)
	if d < 1 {
		return nil, fmt.Errorf("algo: %s needs CD ≥ 3 declared blocks, got %d", a.Name(), declared.CD)
	}
	gr, gc := declared.Grid()
	tileI := gr * d
	tileJ := gc * d

	body := func(b schedule.Backend) {
		for i0 := 0; i0 < w.M; i0 += tileI {
			ilen := min(tileI, w.M-i0)
			for j0 := 0; j0 < w.N; j0 += tileJ {
				jlen := min(tileJ, w.N-j0)

				// Stage the cyclic round's C region and each core's tile.
				for bi := 0; bi < ilen; bi++ {
					for bj := 0; bj < jlen; bj++ {
						b.StageShared(lineC(i0+bi, j0+bj))
					}
				}
				b.Parallel(func(c int, ops schedule.CoreSink) {
					rlo, rhi, clo, chi := cyclicRegion(c, gr, d, ilen, jlen)
					for bi := rlo; bi < rhi; bi++ {
						for bj := clo; bj < chi; bj++ {
							ops.Stage(lineC(i0+bi, j0+bj))
						}
					}
				})

				for k0 := 0; k0 < w.Z; k0 += d {
					klen := min(d, w.Z-k0)
					// Stage the A column panel (rows of the whole round) and
					// B row panel shared by the grid rows/columns.
					for bi := 0; bi < ilen; bi++ {
						for bk := 0; bk < klen; bk++ {
							b.StageShared(lineA(i0+bi, k0+bk))
						}
					}
					for bk := 0; bk < klen; bk++ {
						for bj := 0; bj < jlen; bj++ {
							b.StageShared(lineB(k0+bk, j0+bj))
						}
					}

					b.Parallel(func(c int, ops schedule.CoreSink) {
						rlo, rhi, clo, chi := cyclicRegion(c, gr, d, ilen, jlen)
						if rlo >= rhi || clo >= chi {
							return
						}
						// Stream the core's d×d A and B tiles through its
						// private cache, then update its C tile in place.
						for bi := rlo; bi < rhi; bi++ {
							for bk := 0; bk < klen; bk++ {
								ops.Stage(lineA(i0+bi, k0+bk))
							}
						}
						for bk := 0; bk < klen; bk++ {
							for bj := clo; bj < chi; bj++ {
								ops.Stage(lineB(k0+bk, j0+bj))
							}
						}
						for bi := rlo; bi < rhi; bi++ {
							for bk := 0; bk < klen; bk++ {
								for bj := clo; bj < chi; bj++ {
									ops.Compute(i0+bi, j0+bj, k0+bk)
								}
							}
						}
						for bi := rlo; bi < rhi; bi++ {
							for bk := 0; bk < klen; bk++ {
								ops.Unstage(lineA(i0+bi, k0+bk))
							}
						}
						for bk := 0; bk < klen; bk++ {
							for bj := clo; bj < chi; bj++ {
								ops.Unstage(lineB(k0+bk, j0+bj))
							}
						}
					})

					for bi := 0; bi < ilen; bi++ {
						for bk := 0; bk < klen; bk++ {
							b.UnstageShared(lineA(i0+bi, k0+bk))
						}
					}
					for bk := 0; bk < klen; bk++ {
						for bj := 0; bj < jlen; bj++ {
							b.UnstageShared(lineB(k0+bk, j0+bj))
						}
					}
				}

				b.Parallel(func(c int, ops schedule.CoreSink) {
					rlo, rhi, clo, chi := cyclicRegion(c, gr, d, ilen, jlen)
					for bi := rlo; bi < rhi; bi++ {
						for bj := clo; bj < chi; bj++ {
							ops.Unstage(lineC(i0+bi, j0+bj))
						}
					}
				})
				for bi := 0; bi < ilen; bi++ {
					for bj := 0; bj < jlen; bj++ {
						b.UnstageShared(lineC(i0+bi, j0+bj))
					}
				}
			}
		}
	}
	return &schedule.Program{
		Algorithm: a.Name(),
		Cores:     declared.P,
		Params:    schedule.Params{Edge: d, GridRows: gr, GridCols: gc},
		Resources: resources(declared),
		Body:      body,
	}, nil
}

// cyclicRegion returns core c's d×d tile bounds [rlo,rhi)×[clo,chi)
// inside one round of a 2-D cyclic core grid of gr rows, clamped to the
// round's (possibly ragged) extent ilen×jlen. Core c sits at grid
// position (c mod gr, c div gr), the paper's offseti/offsetj. Distributed
// Equal and Distributed Opt. (d = µ) both partition their rounds by it.
func cyclicRegion(c, gr, d, ilen, jlen int) (rlo, rhi, clo, chi int) {
	offI := c % gr
	offJ := c / gr
	rlo = min(offI*d, ilen)
	rhi = min(rlo+d, ilen)
	clo = min(offJ*d, jlen)
	chi = min(clo+d, jlen)
	return rlo, rhi, clo, chi
}
