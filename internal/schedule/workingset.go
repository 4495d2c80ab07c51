package schedule

import "fmt"

// WorkingSet summarises the staging footprint and traffic of one
// program: the peak number of simultaneously staged blocks at the
// shared level and in the busiest core's distributed level, plus the
// per-level staging traffic in blocks, measured by walking the
// program's trace against counting sets (no cache policy, no data). A
// backend that materialises staging — the executor's shared and
// per-core arenas — uses it to prove, before allocating or running
// anything, that the schedule fits the cache capacities it was tuned
// for.
//
// The traffic counters mirror the paper's two miss streams: a
// well-disciplined program's SharedStages equal the MS the IDEAL
// simulator counts, and its Stages are the sum over cores of MD — the
// blocks the σS and σD bandwidths divide in Tdata. On a multi-chip
// machine the shared level splits per chip: each staged line occupies a
// slot only in its home chip's shared cache, so the capacity check is
// per chip, and Stage operations whose line lives on a foreign chip
// additionally cross the inter-chip stream (InterChipStages /
// InterChipUnstages).
type WorkingSet struct {
	SharedPeak int    // peak staged shared blocks on the fullest chip
	CorePeak   int    // peak simultaneously staged blocks of the busiest core
	Computes   uint64 // total kernel applications (Apply/Compute) emitted

	SharedStages   uint64 // total StageShared operations (memory→shared fills)
	SharedUnstages uint64 // total UnstageShared operations (shared-level releases)
	Stages         uint64 // total per-core Stage operations (shared→core fills)
	Unstages       uint64 // total per-core Unstage operations (core-level releases)

	// SharedPeakPerChip breaks SharedPeak down by home chip; length is
	// the program's declared chip count (1 when undeclared).
	SharedPeakPerChip []int
	// InterChipStages/InterChipUnstages count the per-core Stage/Unstage
	// operations whose line's home chip differs from the staging core's
	// chip — the subset of the MD stream that crosses the interconnect.
	// Always zero on a single-chip program.
	InterChipStages   uint64
	InterChipUnstages uint64
}

// Fits checks the measured working set against declared resources at
// both cache levels. Staging at a level whose capacity is undeclared
// (zero) is an error: a program that emits StageShared operations while
// declaring no shared capacity is claiming traffic through a cache it
// says does not exist, and silently skipping the check let exactly that
// pass validation. Levels the program never stages at (peak 0) may stay
// undeclared — demand-driven programs declare nothing and stage
// nothing.
//
// Fits, FitsCore and FitsShared all delegate to CheckCapacity — the
// single accounting implementation shared with the static verifier —
// and only render its issues as errors.
func (ws WorkingSet) Fits(r Resources) error {
	if err := ws.FitsCore(r); err != nil {
		return err
	}
	return ws.FitsShared(r)
}

// capacityError renders one CheckCapacity issue with the error text the
// executor's pre-run validation has always produced.
func capacityError(is CapacityIssue) error {
	switch {
	case !is.Shared && is.Undeclared:
		return fmt.Errorf("schedule: program stages up to %d blocks per core but declares no distributed capacity (CD=0)",
			is.Peak)
	case !is.Shared:
		return fmt.Errorf("schedule: per-core working set of %d blocks exceeds the declared CD=%d",
			is.Peak, is.Cap)
	case is.Undeclared:
		return fmt.Errorf("schedule: program stages up to %d shared blocks but declares no shared capacity (CS=0)",
			is.Peak)
	case is.Chip >= 0:
		return fmt.Errorf("schedule: shared working set of %d blocks on chip %d exceeds the declared per-chip CS=%d",
			is.Peak, is.Chip, is.Cap)
	default:
		return fmt.Errorf("schedule: shared working set of %d blocks exceeds the declared CS=%d",
			is.Peak, is.Cap)
	}
}

// FitsCore checks only the distributed (per-core) level. Backends that
// materialise just that level — the executor's ModePacked, where shared
// staging stays a probe-only hint — validate with this instead of Fits.
func (ws WorkingSet) FitsCore(r Resources) error {
	for _, is := range CheckCapacity(ws, r) {
		if !is.Shared {
			return capacityError(is)
		}
	}
	return nil
}

// FitsShared checks only the shared level. SharedBlocks is the per-chip
// capacity, so each chip's peak is checked independently; working sets
// carrying no (or a truncated) per-chip breakdown fall back to the
// aggregate peak, which by definition is the fullest chip's.
func (ws WorkingSet) FitsShared(r Resources) error {
	for _, is := range CheckCapacity(ws, r) {
		if is.Shared {
			return capacityError(is)
		}
	}
	return nil
}

// Measure walks p's trace against counting sets and returns its
// working set. The walk performs no arithmetic and instantiates no
// cache policy, so it is cheap relative to execution and safe to run
// ahead of it. A program that carries no trace is lowered first; its
// lowering error, if any, is returned. The sets are indexed by line ID
// and keep set semantics on any stream: staging a resident line does
// not raise a peak, and unstaging a non-resident one does not lower
// it. Shared residency is counted per home chip, so the per-chip
// capacity rule and the inter-chip subset of the MD stream fall out of
// the same walk.
func Measure(p *Program) (WorkingSet, error) {
	t, err := p.Lower()
	if err != nil {
		return WorkingSet{}, err
	}
	chips := p.Resources.ChipCount()
	ws := WorkingSet{SharedPeakPerChip: make([]int, chips)}
	shared := make([]bool, len(t.Lines)) // shared-resident, on the line's home chip
	sharedN := make([]int, chips)        // shared-resident lines per chip
	cores := make([][]bool, max(p.Cores, 0))
	coreN := make([]int, len(cores))
	for i := range t.Steps {
		s := &t.Steps[i]
		if s.Cores == nil {
			id := s.Shared.Line
			home := t.Homes[id]
			if s.Shared.Unstage {
				if shared[id] {
					shared[id] = false
					sharedN[home]--
				}
				ws.SharedUnstages++
				continue
			}
			if !shared[id] {
				shared[id] = true
				sharedN[home]++
			}
			ws.SharedStages++
			ws.SharedPeakPerChip[home] = max(ws.SharedPeakPerChip[home], sharedN[home])
			ws.SharedPeak = max(ws.SharedPeak, sharedN[home])
			continue
		}
		for c, ops := range s.Cores {
			chip := p.ChipOfCore(c)
			for j := range ops {
				op := &ops[j]
				switch op.Kind {
				case OpStage:
					if cores[c] == nil {
						cores[c] = make([]bool, len(t.Lines))
					}
					if !cores[c][op.Line] {
						cores[c][op.Line] = true
						coreN[c]++
					}
					ws.CorePeak = max(ws.CorePeak, coreN[c])
					ws.Stages++
					if t.Homes[op.Line] != chip {
						ws.InterChipStages++
					}
				case OpUnstage:
					if cores[c] != nil && cores[c][op.Line] {
						cores[c][op.Line] = false
						coreN[c]--
					}
					ws.Unstages++
					if t.Homes[op.Line] != chip {
						ws.InterChipUnstages++
					}
				case OpApply:
					ws.Computes++
				}
			}
		}
	}
	return ws, nil
}
