// Package core orchestrates the paper's reproduction: it binds the
// machine model, the algorithm registry and the lower bounds into a
// single front-end used by the experiment harness, the command-line
// tools and the public facade.
//
// A Simulator owns one machine configuration; Run executes one algorithm
// under one of the paper's four named settings (IDEAL, LRU, LRU(2C),
// LRU-50), and Compare produces side-by-side results with the §2.3
// lower bounds for whole-figure reproduction. parallel.Multiply runs
// the same schedules for real on float64 data.
package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/algo"
	"repro/internal/bounds"
	"repro/internal/machine"
)

// RunSetting names the four experimental settings of §4.
type RunSetting string

const (
	// SettingIdeal: omniscient replacement, full capacities declared.
	SettingIdeal RunSetting = "IDEAL"
	// SettingLRU: LRU replacement, full capacities declared (the
	// "LRU (CS)" curves of Figures 4–6).
	SettingLRU RunSetting = "LRU"
	// SettingLRU2x: LRU replacement on caches twice the declared size
	// (the "LRU (2CS)" curves of Figures 4–6).
	SettingLRU2x RunSetting = "LRU-2x"
	// SettingLRU50: LRU replacement with half capacities declared — the
	// paper's default realistic setting.
	SettingLRU50 RunSetting = "LRU-50"
)

// Settings returns all four settings in presentation order.
func Settings() []RunSetting {
	return []RunSetting{SettingIdeal, SettingLRU, SettingLRU2x, SettingLRU50}
}

// Simulator runs the paper's algorithms on one machine configuration.
type Simulator struct {
	mach machine.Machine
}

// New validates the machine and returns a simulator for it.
func New(m machine.Machine) (*Simulator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &Simulator{mach: m}, nil
}

// Machine returns the simulated configuration.
func (s *Simulator) Machine() machine.Machine { return s.mach }

// Run executes one algorithm on workload w under the given setting.
func (s *Simulator) Run(a algo.Algorithm, w algo.Workload, set RunSetting) (algo.Result, error) {
	switch set {
	case SettingIdeal:
		return algo.RunIdeal(a, s.mach, w)
	case SettingLRU:
		return algo.RunLRU(a, s.mach, w)
	case SettingLRU2x:
		return algo.RunLRU2x(a, s.mach, w)
	case SettingLRU50:
		return algo.RunLRU50(a, s.mach, w)
	default:
		return algo.Result{}, fmt.Errorf("core: unknown setting %q", set)
	}
}

// RunByName resolves name through the algorithm registry and runs it.
func (s *Simulator) RunByName(name string, w algo.Workload, set RunSetting) (algo.Result, error) {
	a, err := algo.ByName(name)
	if err != nil {
		return algo.Result{}, err
	}
	return s.Run(a, w, set)
}

// Predict returns the closed-form MS/MD for the algorithm under the
// declared capacities implied by the setting.
func (s *Simulator) Predict(a algo.Algorithm, w algo.Workload, set RunSetting) (ms, md float64, ok bool) {
	declared := s.mach
	if set == SettingLRU50 {
		declared = s.mach.Halve()
	}
	return a.Predict(declared, w)
}

// Bounds evaluates the §2.3 lower bounds for workload w on this machine.
func (s *Simulator) Bounds(w algo.Workload) bounds.Report {
	return bounds.NewReport(s.mach, w.M, w.N, w.Z)
}

// Row is one line of a Comparison: an algorithm's metrics under one
// setting, with the ratios to the corresponding lower bounds.
type Row struct {
	Algorithm   string
	Setting     RunSetting
	Result      algo.Result
	MSvsBound   float64 // MS divided by the MS lower bound
	MDvsBound   float64 // MD divided by the MD lower bound
	TdatavsBind float64 // Tdata divided by the Tdata lower bound
}

// Comparison aggregates rows for one workload on one machine.
type Comparison struct {
	Machine  machine.Machine
	Workload algo.Workload
	Bounds   bounds.Report
	Rows     []Row
}

// Compare runs every algorithm in algs under every setting in sets and
// assembles the comparison table. Rows are ordered by setting first,
// then by ascending Tdata within the setting.
func (s *Simulator) Compare(w algo.Workload, algs []algo.Algorithm, sets []RunSetting) (Comparison, error) {
	cmp := Comparison{Machine: s.mach, Workload: w, Bounds: s.Bounds(w)}
	for _, set := range sets {
		for _, a := range algs {
			res, err := s.Run(a, w, set)
			if err != nil {
				return Comparison{}, fmt.Errorf("core: %s under %s: %w", a.Name(), set, err)
			}
			row := Row{Algorithm: a.Name(), Setting: set, Result: res}
			if cmp.Bounds.MS > 0 {
				row.MSvsBound = float64(res.MS) / cmp.Bounds.MS
			}
			if cmp.Bounds.MD > 0 {
				row.MDvsBound = float64(res.MD) / cmp.Bounds.MD
			}
			if cmp.Bounds.Tdata > 0 {
				row.TdatavsBind = res.Tdata / cmp.Bounds.Tdata
			}
			cmp.Rows = append(cmp.Rows, row)
		}
	}
	sort.SliceStable(cmp.Rows, func(i, j int) bool {
		if cmp.Rows[i].Setting != cmp.Rows[j].Setting {
			return settingRank(cmp.Rows[i].Setting) < settingRank(cmp.Rows[j].Setting)
		}
		return cmp.Rows[i].Result.Tdata < cmp.Rows[j].Result.Tdata
	})
	return cmp, nil
}

func settingRank(s RunSetting) int {
	for i, v := range Settings() {
		if v == s {
			return i
		}
	}
	return len(Settings())
}

// Table renders the comparison as a fixed-width text table.
func (c Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "machine: %s\nworkload: %d×%d×%d blocks (%.0f block products)\n",
		c.Machine, c.Workload.M, c.Workload.N, c.Workload.Z, c.Workload.Products())
	fmt.Fprintf(&b, "lower bounds: MS ≥ %.0f   MD ≥ %.0f   Tdata ≥ %.0f\n\n",
		c.Bounds.MS, c.Bounds.MD, c.Bounds.Tdata)
	fmt.Fprintf(&b, "%-18s %-8s %12s %12s %14s %8s %8s\n",
		"algorithm", "setting", "MS", "MD", "Tdata", "MS/LB", "MD/LB")
	for _, r := range c.Rows {
		fmt.Fprintf(&b, "%-18s %-8s %12d %12d %14.1f %8.2f %8.2f\n",
			r.Algorithm, r.Setting, r.Result.MS, r.Result.MD, r.Result.Tdata,
			r.MSvsBound, r.MDvsBound)
	}
	return b.String()
}

// Best returns the row with the lowest value of the given metric within
// one setting, or false if the comparison has no row for that setting.
func (c Comparison) Best(set RunSetting, metric func(Row) float64) (Row, bool) {
	var best Row
	found := false
	for _, r := range c.Rows {
		if r.Setting != set {
			continue
		}
		if !found || metric(r) < metric(best) {
			best = r
			found = true
		}
	}
	return best, found
}

// MetricMS, MetricMD and MetricTdata are ready-made selectors for Best.
func MetricMS(r Row) float64    { return float64(r.Result.MS) }
func MetricMD(r Row) float64    { return float64(r.Result.MD) }
func MetricTdata(r Row) float64 { return r.Result.Tdata }
