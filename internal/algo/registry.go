package algo

import (
	"fmt"

	"repro/internal/machine"
)

// The registry is the single place algorithm names are resolved:
// simulation front-ends (internal/core), the real executor
// (internal/parallel) and the command-line tools all dispatch through
// ByName. Adding an algorithm means implementing the Algorithm interface
// (one schedule emitter) and registering it here — every backend picks
// it up without further changes.

// evaluated lists the six algorithms of the paper's evaluation, in the
// order they are introduced: the three Multicore Maximum Reuse variants
// first, then the two reference algorithms.
var evaluated = []Algorithm{
	SharedOpt{},
	DistributedOpt{},
	Tradeoff{},
	OuterProduct{},
	SharedEqual{},
	DistributedEqual{},
}

// extras lists the comparators beyond the paper's evaluated set.
var extras = []Algorithm{
	CacheOblivious{},
}

// All returns the six algorithms of the paper's evaluation.
func All() []Algorithm {
	return append([]Algorithm(nil), evaluated...)
}

// Extended returns the paper's six algorithms plus the comparators (the
// cache-oblivious recursion).
func Extended() []Algorithm {
	return append(All(), extras...)
}

// Names returns the display names of the extended set, in registry
// order.
func Names() []string {
	ext := Extended()
	names := make([]string, len(ext))
	for i, a := range ext {
		names[i] = a.Name()
	}
	return names
}

// ByName resolves a display name (case-sensitive, as used in the
// figures) to its algorithm, searching the extended set.
func ByName(name string) (Algorithm, error) {
	for _, a := range Extended() {
		if a.Name() == name {
			return a, nil
		}
	}
	return nil, fmt.Errorf("algo: unknown algorithm %q", name)
}

// RunIdeal simulates a under the IDEAL setting: the omniscient policy
// with the full cache sizes declared to the algorithm.
func RunIdeal(a Algorithm, m machine.Machine, w Workload) (Result, error) {
	return Run(a, m, m, w, Ideal)
}

// RunLRU simulates a under plain LRU with the full cache sizes declared
// (the "LRU (CS)" curves of Figures 4–6).
func RunLRU(a Algorithm, m machine.Machine, w Workload) (Result, error) {
	return Run(a, m, m, w, LRU)
}

// RunLRU2x simulates a on caches twice the declared size (the
// "LRU (2CS)" curves of Figures 4–6, which validate the ideal-cache→LRU
// competitiveness factor of Frigo et al.).
func RunLRU2x(a Algorithm, m machine.Machine, w Workload) (Result, error) {
	return Run(a, m.Scale(2), m, w, LRU)
}

// RunLRU50 simulates a under the paper's LRU-50 setting: the hierarchy
// keeps its true capacities but only one half of each cache is declared
// to the algorithm, the other half serving the LRU policy "as kind of an
// automatic prefetching buffer".
func RunLRU50(a Algorithm, m machine.Machine, w Workload) (Result, error) {
	return Run(a, m, m.Halve(), w, LRU)
}
