package report

import (
	"fmt"
	"strconv"
	"strings"
)

// Shared console helpers for the benchmark front-ends (cmd/gemm,
// cmd/lufact): one definition of the -bench-cores list syntax and of
// the human-readable byte rendering, so the two CLIs cannot drift.

// ParseCores parses a comma-separated list of positive counts, the
// syntax of the benchmark commands' -bench-cores and -bench-chips
// flags. An error names the flag, given without its dash.
func ParseCores(name, s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || p <= 0 {
			return nil, fmt.Errorf("bad count %q in -%s", f, name)
		}
		out = append(out, p)
	}
	return out, nil
}

// FormatBytes renders a byte count with a binary-unit suffix for
// console output (the JSON records keep exact integers).
func FormatBytes(b uint64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}
