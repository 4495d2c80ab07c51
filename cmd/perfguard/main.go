// Command perfguard enforces the repository's perf trajectory: it reads
// one or more benchmark JSON records (BENCH_gemm.json, BENCH_lu.json —
// freshly regenerated by CI, not the committed snapshots) and checks
// two GFLOP/s ratios, each as a geometric mean over every comparable
// (algorithm, cores) pair:
//
//   - packed over view: physical staging paying for itself against the
//     strided baseline, the signal that is stable across runner
//     generations (absolute GFLOP/s is not). Failing this is a hard
//     error.
//
//   - shared-pipelined over shared: the pipelined executor must not be
//     slower than the serial shared path it overlaps (≥ 1 − noise).
//     A record with no shared-pipelined runs predates the pipelined
//     executor; the guard degrades to a warning there instead of
//     failing, so older snapshots stay checkable.
//
// The same run enforces the optimizer's traffic ratchet: the geomean of
// the optimized/baseline MS byte ratios must hold ≤ 1.0 exactly (see
// guardTraffic). All three checks always run on the given records.
//
// Usage:
//
//	perfguard -noise 0.25 /tmp/BENCH_gemm.json /tmp/BENCH_lu.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/report"
)

func main() {
	noise := flag.Float64("noise", 0.25, "tolerated regression margin: fail when a guarded geomean ratio is below 1-noise")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "perfguard: no benchmark JSON files given")
		os.Exit(2)
	}
	if err := guard(os.Stdout, flag.Args(), "packed", "view", *noise); err != nil {
		fmt.Fprintln(os.Stderr, "perfguard:", err)
		os.Exit(1)
	}
	if err := guardLenient(os.Stdout, flag.Args(), "shared-pipelined", "shared", *noise); err != nil {
		fmt.Fprintln(os.Stderr, "perfguard:", err)
		os.Exit(1)
	}
	if err := guardTraffic(os.Stdout, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "perfguard:", err)
		os.Exit(1)
	}
}

// guard loads the records, prints every mode-over-base ratio and
// returns an error when the geometric mean falls below 1 − noise (or
// when no comparable pair exists, which would otherwise let a renamed
// mode silently disable the guard).
func guard(w io.Writer, paths []string, mode, base string, noise float64) error {
	return guardRatio(w, paths, mode, base, noise, false)
}

// guardLenient is guard for ratios whose modes may legitimately be
// absent: a record written before the shared-pipelined executor existed
// carries no such runs, and failing on it would make every historical
// snapshot un-guardable. Missing pairs degrade to a warning; pairs that
// do exist are enforced exactly as strictly.
func guardLenient(w io.Writer, paths []string, mode, base string, noise float64) error {
	return guardRatio(w, paths, mode, base, noise, true)
}

// trafficRatio is one optimized-over-baseline MS byte comparison.
type trafficRatio struct {
	Algorithm string
	Mode      string
	Cores     int
	Chips     int
	Ratio     float64
}

// msBytes is a run's total memory↔shared volume, fills plus
// write-backs — the quantity the optimizer exists to shrink.
func msBytes(r *report.BenchRun) uint64 {
	return r.MSStageBytes + r.MSWriteBackBytes
}

// trafficRatios joins every optimized run in rec with the baseline run
// of the same (algorithm, mode, cores, chips) cell and returns the MS
// byte ratios. Records predating the optimized field have no optimized
// runs at all (optimized == 0), which is the caller's vintage signal.
// Pairs where neither side moved MS bytes (packed mode, where the
// shared level does not exist) carry no signal and are skipped; an
// optimized run with no baseline partner is counted as an orphan, not
// silently dropped. A pair whose baseline is zero while the optimized
// run moved bytes yields +Inf — the optimizer invented traffic, and the
// geomean must fail on it.
func trafficRatios(rec *report.Bench) (ratios []trafficRatio, optimized, orphans int) {
	type key struct {
		algo, mode string
		cores      int
		chips      int
	}
	base := map[key]uint64{}
	for _, r := range rec.Runs {
		if !r.Optimized {
			base[key{r.Algorithm, r.Mode, r.Cores, r.NormalizeChips()}] = msBytes(r)
		}
	}
	for _, r := range rec.Runs {
		if !r.Optimized {
			continue
		}
		optimized++
		k := key{r.Algorithm, r.Mode, r.Cores, r.NormalizeChips()}
		b, ok := base[k]
		if !ok {
			orphans++
			continue
		}
		o := msBytes(r)
		if b == 0 && o == 0 {
			continue
		}
		ratio := math.Inf(1)
		if b > 0 {
			ratio = float64(o) / float64(b)
		}
		ratios = append(ratios, trafficRatio{
			Algorithm: r.Algorithm, Mode: r.Mode,
			Cores: r.Cores, Chips: r.NormalizeChips(), Ratio: ratio,
		})
	}
	return ratios, optimized, orphans
}

// guardTraffic enforces the optimizer's traffic ratchet: per record,
// the geometric mean of the optimized/baseline MS byte ratios must hold
// ≤ 1.0 — exactly, with no noise margin, because the counts are
// deterministic. A record with no optimized runs predates the
// optimized field, and the guard degrades to a warning there so older
// snapshots stay checkable; a fresh record is enforced hard.
func guardTraffic(w io.Writer, paths []string) error {
	var logSum float64
	var count int
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec report.Bench
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		ratios, optimized, orphans := trafficRatios(&rec)
		if optimized == 0 {
			fmt.Fprintf(w, "warning: %s: no optimized runs — record predates the optimizer, traffic ratchet skipped\n", path)
			continue
		}
		if len(ratios) == 0 && orphans > 0 {
			return fmt.Errorf("%s: %d optimized run(s) but none has a baseline partner — the record is not a paired measurement", path, orphans)
		}
		if orphans > 0 {
			fmt.Fprintf(w, "warning: %s: %d optimized run(s) with no baseline partner; skipped\n", path, orphans)
		}
		for _, tr := range ratios {
			fmt.Fprintf(w, "%-12s %-20s %-17s %-13s optimized/baseline MS = %.3fx\n",
				rec.Name, tr.Algorithm, tr.Mode, coresLabel(tr.Cores, tr.Chips), tr.Ratio)
			logSum += math.Log(tr.Ratio)
			count++
		}
	}
	if count == 0 {
		fmt.Fprintf(w, "\nno optimized/baseline pairs anywhere — traffic ratchet skipped\n")
		return nil
	}
	geomean := math.Exp(logSum / float64(count))
	fmt.Fprintf(w, "\ngeomean optimized/baseline MS bytes over %d pairs: %.3fx (ceiling 1.000x)\n", count, geomean)
	if !(geomean <= 1.0) {
		return fmt.Errorf("optimizer traffic geomean %.3fx above 1.0 — the optimized stream moved more MS bytes than the baseline", geomean)
	}
	return nil
}

// coresLabel renders a run's topology for the ratio lines: "p=4", or
// "p=4 chips=2" when the shared level was split (chips ≤ 1 — including
// the zero of records predating the chip fields — reads single-chip).
func coresLabel(cores, chips int) string {
	if chips > 1 {
		return fmt.Sprintf("p=%d chips=%d", cores, chips)
	}
	return fmt.Sprintf("p=%d", cores)
}

func guardRatio(w io.Writer, paths []string, mode, base string, noise float64, lenient bool) error {
	if noise < 0 || noise >= 1 {
		return fmt.Errorf("noise margin %g outside [0,1)", noise)
	}
	var logSum float64
	var count int
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var rec report.Bench
		if err := json.Unmarshal(raw, &rec); err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		sps := rec.Speedup(mode, base)
		if len(sps) == 0 {
			if lenient {
				fmt.Fprintf(w, "warning: %s: no (algorithm, cores) pair measured in both %q and %q modes — record predates this guard, skipping\n",
					path, mode, base)
				continue
			}
			return fmt.Errorf("%s: no (algorithm, cores) pair measured in both %q and %q modes", path, mode, base)
		}
		for _, sp := range sps {
			if sp.Ratio <= 0 {
				return fmt.Errorf("%s: non-positive ratio for %s p=%d", path, sp.Algorithm, sp.Cores)
			}
			fmt.Fprintf(w, "%-12s %-20s %-13s %s/%s = %.3fx\n", rec.Name, sp.Algorithm, coresLabel(sp.Cores, sp.Chips), mode, base, sp.Ratio)
			logSum += math.Log(sp.Ratio)
			count++
		}
	}
	if count == 0 {
		// Only reachable leniently: every record predates the compared
		// modes.
		fmt.Fprintf(w, "\nno %s/%s pairs anywhere — guard skipped\n", mode, base)
		return nil
	}
	geomean := math.Exp(logSum / float64(count))
	floor := 1 - noise
	fmt.Fprintf(w, "\ngeomean %s/%s ratio over %d pairs: %.3fx (floor %.3fx)\n", mode, base, count, geomean, floor)
	if geomean < floor {
		return fmt.Errorf("%s/%s GFLOP/s geomean %.3fx regressed below %.3fx", mode, base, geomean, floor)
	}
	return nil
}
