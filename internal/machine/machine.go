// Package machine models the paper's multicore processor: p identical
// cores behind an inclusive two-level cache hierarchy (shared cache of CS
// blocks with bandwidth σS, per-core distributed caches of CD blocks with
// bandwidth σD), and derives the algorithmic parameters λ, µ, α and β of
// §3 together with the data-access-time objective Tdata of §2.2.
package machine

import (
	"fmt"
	"math"
)

// Machine describes one simulated multicore processor. Capacities are in
// q×q blocks, exactly as the paper communicates them to its algorithms.
//
// Chips extends the paper's single-socket model to a multi-chip machine:
// the p cores are partitioned into Chips equal contiguous groups ("chip 0
// owns cores 0..p/chips-1" and so on), each chip carrying its OWN shared
// cache of CS blocks, with an interconnect between the chips. The σS term
// then splits physically: a core filling from its own chip's shared cache
// pays only MD, while a block resident on a foreign chip additionally
// crosses the inter-chip stream. Chips ≤ 1 (including the zero value) is
// the paper's original single-shared-cache machine.
type Machine struct {
	P      int     // number of cores
	CS     int     // per-chip shared cache capacity, in blocks
	CD     int     // per-core distributed cache capacity, in blocks
	Chips  int     // number of chips; 0 or 1 means a single shared cache
	SigmaS float64 // shared cache bandwidth (blocks per time unit)
	SigmaD float64 // distributed cache bandwidth (blocks per time unit)
	Q      int     // block edge, in matrix coefficients (metadata only)
}

// ChipCount normalises the Chips field: machines predating the chip
// dimension (zero value) are single-chip.
func (m Machine) ChipCount() int {
	if m.Chips < 1 {
		return 1
	}
	return m.Chips
}

// CoresPerChip returns the number of cores each chip owns. Validate
// enforces that the chip count divides p, so the partition is exact.
func (m Machine) CoresPerChip() int { return m.P / m.ChipCount() }

// ChipOf returns the chip owning core c under the blocked partition:
// chip 0 owns cores [0, p/chips), chip 1 the next block, and so on. The
// contiguous split keeps a chip's cores adjacent, which is what
// DistributedOpt's 2-D cyclic grid maps onto (consecutive cores form
// grid columns).
func (m Machine) ChipOf(c int) int { return ChipOfCore(c, m.P, m.ChipCount()) }

// ChipCores returns the half-open core range [lo, hi) owned by chip.
func (m Machine) ChipCores(chip int) (lo, hi int) {
	per := m.CoresPerChip()
	return chip * per, (chip + 1) * per
}

// ChipOfCore is the blocked core→chip partition as a free function, for
// packages that carry the topology as plain integers (the schedule IR,
// the cache simulator, DistributedOpt's home policy): core c of p cores
// on chips chips lives on chip c/(p/chips).
func ChipOfCore(c, p, chips int) int {
	if chips <= 1 {
		return 0
	}
	per := p / chips
	if per < 1 {
		per = 1
	}
	chip := c / per
	if chip >= chips {
		chip = chips - 1
	}
	return chip
}

// Validate checks the structural constraints of the model: positive
// dimensions, at least the 3-block distributed footprint required by
// Algorithm 1 (one element of each matrix), a chip partition that splits
// the cores evenly, and the per-chip inclusion constraint
// CS ≥ (p/chips)·CD — each chip's shared cache must be able to hold
// every line its own cores stage.
func (m Machine) Validate() error {
	if m.P <= 0 {
		return fmt.Errorf("machine: need at least one core, got p=%d", m.P)
	}
	if m.Chips < 0 {
		return fmt.Errorf("machine: chip count must be non-negative, got %d", m.Chips)
	}
	chips := m.ChipCount()
	if chips > m.P {
		return fmt.Errorf("machine: %d chips need at least as many cores, got p=%d", chips, m.P)
	}
	if m.P%chips != 0 {
		return fmt.Errorf("machine: %d chips must split p=%d cores evenly", chips, m.P)
	}
	if m.CD < 3 {
		return fmt.Errorf("machine: distributed caches need CD ≥ 3 blocks, got %d", m.CD)
	}
	if per := m.P / chips; m.CS < per*m.CD {
		return fmt.Errorf("machine: inclusion requires CS ≥ (p/chips)·CD, got %d < %d·%d", m.CS, per, m.CD)
	}
	if m.SigmaS <= 0 || m.SigmaD <= 0 {
		return fmt.Errorf("machine: bandwidths must be positive, got σS=%g σD=%g", m.SigmaS, m.SigmaD)
	}
	return nil
}

// String summarises the configuration.
func (m Machine) String() string {
	if m.ChipCount() > 1 {
		return fmt.Sprintf("p=%d chips=%d CS=%d CD=%d σS=%g σD=%g q=%d",
			m.P, m.ChipCount(), m.CS, m.CD, m.SigmaS, m.SigmaD, m.Q)
	}
	return fmt.Sprintf("p=%d CS=%d CD=%d σS=%g σD=%g q=%d", m.P, m.CS, m.CD, m.SigmaS, m.SigmaD, m.Q)
}

// Halve returns the machine as declared to an algorithm under the
// paper's LRU-50 setting: only one half of each cache capacity is
// communicated to the algorithm, the other half acting as "kind of an
// automatic prefetching buffer" for the LRU policy. The declared
// distributed capacity never drops below the 3-block minimum footprint
// (one element of each matrix) the algorithms need to run at all, so
// tiny configurations like CD=4 remain usable under LRU-50.
//
// The clamps interact: when CD halving is pulled back up to the
// 3-block minimum, the independently halved CS can land below the
// per-chip inclusion floor (p/chips)·CD — e.g. CD=4 halves to 2,
// clamps back to 3, while CS=p·4 halves to p·2 < p·3. Halve therefore
// re-applies the inclusion floor after the CD clamp, growing CS back
// up to it but never past the original CS, so a machine that satisfies
// Validate always halves to one that still does.
func (m Machine) Halve() Machine {
	h := m
	h.CS = m.CS / 2
	h.CD = m.CD / 2
	if h.CD < 3 {
		h.CD = min(m.CD, 3)
	}
	if floor := h.CoresPerChip() * h.CD; h.CS < floor {
		h.CS = min(m.CS, floor)
	}
	return h
}

// Scale returns the machine with both capacities multiplied by f (used
// for the LRU(2·CS) experiments of Figures 4–6).
func (m Machine) Scale(f int) Machine {
	s := m
	s.CS = m.CS * f
	s.CD = m.CD * f
	return s
}

// Lambda returns λ, the largest integer with 1 + λ + λ² ≤ CS: the edge
// of the square block of C that Algorithm 1 keeps in the shared cache
// alongside a row of B and one element of A.
func (m Machine) Lambda() int { return largestQuadratic(m.CS) }

// Mu returns µ, the largest integer with 1 + µ + µ² ≤ CD: the edge of
// the square block of C that Algorithm 2 keeps in each distributed cache.
func (m Machine) Mu() int { return largestQuadratic(m.CD) }

// largestQuadratic returns the largest integer x ≥ 0 with 1+x+x² ≤ c,
// i.e. ⌊√(c − 3/4) − 1/2⌋ computed robustly.
func largestQuadratic(c int) int {
	if c < 1 {
		return 0
	}
	x := int(math.Sqrt(float64(c)))
	for 1+x+x*x > c {
		x--
	}
	for 1+(x+1)+(x+1)*(x+1) <= c {
		x++
	}
	return x
}

// Grid returns the core grid (rows, cols) used by the 2-D cyclic
// algorithms. For a perfect square p this is (√p, √p) as in the paper;
// otherwise the most-square factorisation with rows ≤ cols is used.
func (m Machine) Grid() (rows, cols int) {
	for r := int(math.Sqrt(float64(m.P))); r >= 1; r-- {
		if m.P%r == 0 {
			return r, m.P / r
		}
	}
	return 1, m.P
}

// AlphaMax returns the largest α usable by the tradeoff algorithm when
// β = 1: αmax = √(CS+1) − 1, so that α² + 2α ≤ CS.
func (m Machine) AlphaMax() float64 {
	return math.Sqrt(float64(m.CS)+1) - 1
}

// AlphaNum evaluates the closed-form optimum of §3.3:
//
//	αnum = sqrt( CS · (1 + 2ρ − √(1+8ρ)) / (2(ρ − 1)) ),  ρ = p·σD/σS,
//
// with the removable singularity at ρ=1 filled by its limit √(CS/3).
func (m Machine) AlphaNum() float64 {
	rho := float64(m.P) * m.SigmaD / m.SigmaS
	cs := float64(m.CS)
	const eps = 1e-9
	if math.Abs(rho-1) < eps {
		return math.Sqrt(cs / 3)
	}
	num := 1 + 2*rho - math.Sqrt(1+8*rho)
	val := cs * num / (2 * (rho - 1))
	if val < 0 {
		// Numerically impossible for ρ>0, but guard against rounding.
		return 0
	}
	return math.Sqrt(val)
}

// TradeoffParams holds the integer parameters actually used by the
// tradeoff algorithm after applying the paper's feasibility clamps and
// divisibility constraints.
type TradeoffParams struct {
	Alpha int // edge of the C block held in the shared cache
	Beta  int // depth of the A/B panels held alongside it
	Mu    int // edge of the C sub-blocks in distributed caches
}

// Tradeoff computes α and β per §3.3:
//
//	α = min(αmax, max(√p·µ, αnum)),  β = max(⌊(CS−α²)/(2α)⌋, 1),
//
// then rounds α down so the implementation's divisibility constraints
// hold (α must be a multiple of gridRows·µ and gridCols·µ so that each
// core owns a whole number of µ×µ sub-blocks).
func (m Machine) Tradeoff() TradeoffParams {
	mu := m.Mu()
	if mu < 1 {
		mu = 1
	}
	gr, gc := m.Grid()
	unit := lcm(gr, gc) * mu

	alpha := math.Min(m.AlphaMax(), math.Max(float64(gridEdge(m.P))*float64(mu), m.AlphaNum()))
	a := int(alpha)
	// Round down to the divisibility unit, but never below one sub-block
	// row per core.
	if a > unit {
		a -= a % unit
	} else {
		a = unit
	}
	// Feasibility: α² + 2αβ ≤ CS with β ≥ 1. If even β=1 does not fit,
	// shrink α further.
	for a > unit && a*a+2*a > m.CS {
		a -= unit
	}
	beta := (m.CS - a*a) / (2 * a)
	if beta < 1 {
		beta = 1
	}
	return TradeoffParams{Alpha: a, Beta: beta, Mu: mu}
}

// gridEdge returns √p for square p, else the larger grid dimension (the
// constraint α ≥ √p·µ generalises to α ≥ max(gridRows, gridCols)·µ).
func gridEdge(p int) int {
	r := int(math.Sqrt(float64(p)))
	if r*r == p {
		return r
	}
	for d := r; d >= 1; d-- {
		if p%d == 0 {
			return p / d
		}
	}
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// Tdata returns the data-access-time objective of §2.2,
// Tdata = MS/σS + MD/σD, in abstract time units.
func (m Machine) Tdata(ms, md uint64) float64 {
	return float64(ms)/m.SigmaS + float64(md)/m.SigmaD
}

// BandwidthRatio returns r = σS/(σS+σD), the abscissa of Figure 12.
func (m Machine) BandwidthRatio() float64 {
	return m.SigmaS / (m.SigmaS + m.SigmaD)
}

// WithBandwidthRatio returns a copy of m whose bandwidths realise the
// requested ratio r = σS/(σS+σD) under the normalisation σS+σD = 2 used
// by the Figure 12 sweep. r must lie strictly inside (0, 1): the
// endpoints make one bandwidth zero and Tdata singular.
func (m Machine) WithBandwidthRatio(r float64) (Machine, error) {
	if r <= 0 || r >= 1 {
		return Machine{}, fmt.Errorf("machine: bandwidth ratio %g outside (0,1)", r)
	}
	out := m
	out.SigmaS = 2 * r
	out.SigmaD = 2 * (1 - r)
	return out, nil
}
