package algo

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/schedule"
)

// DistributedOpt is Algorithm 2: the adaptation of the Maximum Reuse
// Algorithm that minimises the number of distributed-cache misses MD.
// Each core owns a µ×µ block of C (µ the largest integer with
// 1 + µ + µ² ≤ CD) that it computes entirely before writing it back; the
// p blocks form a (√p·µ)×(√p·µ) super-tile of C staged in the shared
// cache and distributed 2-D cyclically over the √p×√p core grid. For
// every k, a row fragment of B (√p·µ blocks) and √p elements of a column
// of A at a time transit through the shared cache.
//
// Closed forms (§3.2): MS = mn + 2mnz/(µ√p), MD = mn/p + 2mnz/(pµ).
type DistributedOpt struct{}

// Name returns the figure label used in the paper.
func (DistributedOpt) Name() string { return "Distributed Opt." }

// Params returns µ and the core grid for a declared machine.
func (DistributedOpt) Params(declared machine.Machine) (mu, gridRows, gridCols int) {
	gr, gc := declared.Grid()
	return declared.Mu(), gr, gc
}

// Predict returns the paper's closed forms, generalised to a gr×gc grid
// (for square grids gr = gc = √p and the forms reduce to the paper's).
func (a DistributedOpt) Predict(declared machine.Machine, w Workload) (ms, md float64, ok bool) {
	mu, gr, gc := a.Params(declared)
	if mu < 1 {
		return 0, 0, false
	}
	mnz := w.Products()
	mn := float64(w.M) * float64(w.N)
	p := float64(declared.P)
	ms = mn + mnz*(1/(float64(gr)*float64(mu))+1/(float64(gc)*float64(mu)))
	md = mn/p + 2*mnz/(p*float64(mu))
	return ms, md, true
}

// Schedule emits Algorithm 2's loop nest.
func (a DistributedOpt) Schedule(declared machine.Machine, w Workload) (*schedule.Program, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	mu, gr, gc := a.Params(declared)
	if mu < 1 {
		return nil, fmt.Errorf("algo: %s needs CD ≥ 3 declared blocks, got %d", a.Name(), declared.CD)
	}

	tileI := gr * mu // super-tile height in blocks
	tileJ := gc * mu // super-tile width in blocks

	body := func(b schedule.Backend) {
		for i0 := 0; i0 < w.M; i0 += tileI {
			ilen := min(tileI, w.M-i0)
			for j0 := 0; j0 < w.N; j0 += tileJ {
				jlen := min(tileJ, w.N-j0)

				// Load a new (√p·µ)×(√p·µ) block of C in the shared cache.
				for bi := 0; bi < ilen; bi++ {
					for bj := 0; bj < jlen; bj++ {
						b.StageShared(lineC(i0+bi, j0+bj))
					}
				}

				// Each core stages its private µ×µ sub-block of C.
				b.Parallel(func(c int, ops schedule.CoreSink) {
					rlo, rhi, clo, chi := cyclicRegion(c, gr, mu, ilen, jlen)
					for bi := rlo; bi < rhi; bi++ {
						for bj := clo; bj < chi; bj++ {
							ops.Stage(lineC(i0+bi, j0+bj))
						}
					}
				})

				for k := 0; k < w.Z; k++ {
					// Load a row B[k; j0..j0+√p·µ] of B in the shared cache,
					// and each core its µ-wide fragment.
					for bj := 0; bj < jlen; bj++ {
						b.StageShared(lineB(k, j0+bj))
					}
					b.Parallel(func(c int, ops schedule.CoreSink) {
						_, _, clo, chi := cyclicRegion(c, gr, mu, ilen, jlen)
						for bj := clo; bj < chi; bj++ {
							ops.Stage(lineB(k, j0+bj))
						}
					})

					// √p elements of the k-th column of A transit through the
					// shared cache at a time (one per core-grid row); the
					// cores of one grid row share the same element.
					for ii := 0; ii < mu; ii++ {
						for r := 0; r < gr; r++ {
							if row := r*mu + ii; row < ilen {
								b.StageShared(lineA(i0+row, k))
							}
						}
						b.Parallel(func(c int, ops schedule.CoreSink) {
							rlo, rhi, clo, chi := cyclicRegion(c, gr, mu, ilen, jlen)
							row := rlo + ii
							if row >= rhi || clo >= chi {
								return
							}
							al := lineA(i0+row, k)
							ops.Stage(al)
							for bj := clo; bj < chi; bj++ {
								ops.Compute(i0+row, j0+bj, k)
							}
							ops.Unstage(al)
						})
						for r := 0; r < gr; r++ {
							if row := r*mu + ii; row < ilen {
								b.UnstageShared(lineA(i0+row, k))
							}
						}
					}

					b.Parallel(func(c int, ops schedule.CoreSink) {
						_, _, clo, chi := cyclicRegion(c, gr, mu, ilen, jlen)
						for bj := clo; bj < chi; bj++ {
							ops.Unstage(lineB(k, j0+bj))
						}
					})
					for bj := 0; bj < jlen; bj++ {
						b.UnstageShared(lineB(k, j0+bj))
					}
				}

				// Cores write their finished sub-blocks back to the shared
				// cache, then the super-tile returns to main memory.
				b.Parallel(func(c int, ops schedule.CoreSink) {
					rlo, rhi, clo, chi := cyclicRegion(c, gr, mu, ilen, jlen)
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
		Params:    schedule.Params{Mu: mu, GridRows: gr, GridCols: gc},
		Resources: resources(declared),
		Home:      a.homePolicy(declared, mu, gr, gc),
		Body:      body,
	}, nil
}

// homePolicy maps the 2-D cyclic owner assignment onto the chip grid:
// every staged line is homed on the chip of the core that owns it.
//
//   - C(i,j) lives on the chip of its owning core (offI, offJ) — the
//     core that stages, computes and writes the µ×µ sub-block, so C
//     staging never crosses the interconnect;
//   - B(k,j) is read only by the grid column offJ = (j mod gc·µ)/µ, so
//     it is homed on that column's first core's chip — with the blocked
//     core partition, whole grid columns land on one chip (consecutive
//     cores share offJ), keeping B traffic chip-local too;
//   - A(i,k) is shared across a grid ROW (one reader per column), so
//     wherever it is homed some columns read it remotely; it goes to
//     the owning row's column-0 chip. A is the asymptotically small
//     stream (√p elements in flight vs λ-sized B rows), which is
//     exactly why DistributedOpt's inter-chip traffic undercuts
//     SharedOpt's, whose B rows are read by every core on every chip.
//
// Lines outside any super-tile cannot occur (tile offsets are taken
// mod the tile edges).
func (DistributedOpt) homePolicy(declared machine.Machine, mu, gr, gc int) func(schedule.Line) int {
	if declared.ChipCount() == 1 {
		return nil
	}
	p, chips := declared.P, declared.ChipCount()
	tileI, tileJ := gr*mu, gc*mu
	chipOfCore := func(c int) int { return machine.ChipOfCore(c, p, chips) }
	return func(l schedule.Line) int {
		switch l.Matrix {
		case matrix.MatC:
			offI := (l.Row % tileI) / mu
			offJ := (l.Col % tileJ) / mu
			return chipOfCore(offJ*gr + offI)
		case matrix.MatB:
			offJ := (l.Col % tileJ) / mu
			return chipOfCore(offJ * gr)
		default: // MatA
			offI := (l.Row % tileI) / mu
			return chipOfCore(offI)
		}
	}
}
