package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/report"
)

// record writes a Bench JSON with one packed/view pair at the given
// GFLOP/s values and returns its path.
func record(t *testing.T, name string, packedSecs, viewSecs time.Duration) string {
	t.Helper()
	rec := report.NewBench(name)
	rec.Add("Tradeoff", "view", 2, 8, 8, viewSecs)
	rec.Add("Tradeoff", "packed", 2, 8, 8, packedSecs)
	path := filepath.Join(t.TempDir(), name+".json")
	if err := rec.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestGuardPassesWhenPackedWins(t *testing.T) {
	path := record(t, "gemm", 80*time.Millisecond, 100*time.Millisecond) // packed 1.25x faster
	var out strings.Builder
	if err := guard(&out, []string{path}, "packed", "view", 0.1); err != nil {
		t.Fatalf("healthy ratio rejected: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "geomean") {
		t.Fatalf("missing geomean summary:\n%s", out.String())
	}
}

func TestGuardFailsOnRegression(t *testing.T) {
	path := record(t, "gemm", 200*time.Millisecond, 100*time.Millisecond) // packed 2x slower
	if err := guard(io.Discard, []string{path}, "packed", "view", 0.25); err == nil {
		t.Fatal("0.5x ratio must fail a 0.75 floor")
	}
}

func TestGuardAggregatesAcrossFiles(t *testing.T) {
	good := record(t, "gemm", 50*time.Millisecond, 100*time.Millisecond) // 2x
	bad := record(t, "lu", 190*time.Millisecond, 100*time.Millisecond)   // ~0.53x
	// Geomean ≈ 1.03x: passes a 0.9 floor only because both files count.
	if err := guard(io.Discard, []string{good, bad}, "packed", "view", 0.1); err != nil {
		t.Fatalf("aggregate geomean rejected: %v", err)
	}
}

// The pipelined guard enforces shared-pipelined ≥ (1 − noise) × shared
// when both modes are present…
func TestPipelinedGuardEnforcesWhenPresent(t *testing.T) {
	rec := report.NewBench("gemm")
	rec.Add("Tradeoff", "shared", 2, 8, 8, 100*time.Millisecond)
	rec.Add("Tradeoff", "shared-pipelined", 2, 8, 8, 90*time.Millisecond) // 1.11x: healthy
	path := filepath.Join(t.TempDir(), "pipe.json")
	if err := rec.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := guard(&out, []string{path}, "shared-pipelined", "shared", 0.1); err != nil {
		t.Fatalf("healthy pipelined ratio rejected: %v\n%s", err, out.String())
	}
	slow := report.NewBench("gemm")
	slow.Add("Tradeoff", "shared", 2, 8, 8, 100*time.Millisecond)
	slow.Add("Tradeoff", "shared-pipelined", 2, 8, 8, 200*time.Millisecond) // 0.5x: regression
	slowPath := filepath.Join(t.TempDir(), "slow.json")
	if err := slow.WriteJSONFile(slowPath); err != nil {
		t.Fatal(err)
	}
	if err := guard(io.Discard, []string{slowPath}, "shared-pipelined", "shared", 0.25); err == nil {
		t.Fatal("pipelined slower than serial must fail when both modes are present")
	}
}

// …and fails when a record carries no shared-pipelined runs at all,
// such as one that predates the pipelined executor.
func TestPipelinedGuardWarnsOnOldRecords(t *testing.T) {
	old := record(t, "gemm", 80*time.Millisecond, 100*time.Millisecond) // packed/view only
	err := guard(io.Discard, []string{old}, "shared-pipelined", "shared", 0.25)
	if err == nil || !strings.Contains(err.Error(), "no (algorithm, cores) pair") {
		t.Fatalf("record without shared-pipelined runs must fail: %v", err)
	}
	// A mix of old and new records fails too.
	fresh := report.NewBench("lu")
	fresh.Add("LU", "shared", 2, 8, 8, 100*time.Millisecond)
	fresh.Add("LU", "shared-pipelined", 2, 8, 8, 400*time.Millisecond) // 0.25x: regression
	freshPath := filepath.Join(t.TempDir(), "fresh.json")
	if err := fresh.WriteJSONFile(freshPath); err != nil {
		t.Fatal(err)
	}
	if err := guard(io.Discard, []string{old, freshPath}, "shared-pipelined", "shared", 0.25); err == nil {
		t.Fatal("a list with a record lacking the pipelined mode must fail")
	}
}

func TestGuardRejectsDegenerateInput(t *testing.T) {
	if err := guard(io.Discard, []string{filepath.Join(t.TempDir(), "missing.json")}, "packed", "view", 0.1); err == nil {
		t.Fatal("missing file must fail")
	}
	rec := report.NewBench("gemm")
	rec.Add("Tradeoff", "view", 2, 8, 8, time.Millisecond) // no packed runs at all
	path := filepath.Join(t.TempDir(), "half.json")
	if err := rec.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	if err := guard(io.Discard, []string{path}, "packed", "view", 0.1); err == nil {
		t.Fatal("record with no comparable pair must fail, not silently pass")
	}
	full := record(t, "gemm", time.Millisecond, time.Millisecond)
	for _, noise := range []float64{1.5, math.NaN(), math.Inf(1)} {
		if err := guard(io.Discard, []string{full}, "packed", "view", noise); err == nil {
			t.Fatalf("noise margin %g outside [0,1) must fail", noise)
		}
	}
	_ = os.Remove(full)
}

// Mixed vintages: records written before the multi-chip machine model
// carry no chips fields, and must keep guarding cleanly next to records
// that do. Pre-chip runs join as single-chip; multi-chip runs join only
// with multi-chip runs of the same topology.
func TestGuardsTolerateMixedChipVintages(t *testing.T) {
	dir := t.TempDir()

	// New-vintage record: a healthy pair at chips=1 and one at chips=2.
	fresh := report.NewBench("gemm")
	fresh.Add("Shared Opt.", "shared", 4, 8, 8, 100*time.Millisecond)
	fresh.Add("Shared Opt.", "shared-pipelined", 4, 8, 8, 90*time.Millisecond)
	for _, mode := range []string{"shared", "shared-pipelined"} {
		r := fresh.Add("Shared Opt.", mode, 4, 8, 8, 95*time.Millisecond)
		r.SetTopology(2, 4)
	}
	freshPath := filepath.Join(dir, "fresh.json")
	if err := fresh.WriteJSONFile(freshPath); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := guard(&out, []string{freshPath}, "shared-pipelined", "shared", 0.25); err != nil {
		t.Fatalf("multi-chip record rejected: %v\n%s", err, out.String())
	}
	// Both topologies must appear as distinct pairs, the multi-chip one
	// labelled as such.
	if !strings.Contains(out.String(), "p=4 chips=2") || !strings.Contains(out.String(), "over 2 pairs") {
		t.Fatalf("chips=1 and chips=2 pairs must both be guarded:\n%s", out.String())
	}
}

// tRun builds one BenchRun for the traffic-ratchet join tests.
func tRun(algo, mode string, cores, chips int, optimized bool, msStage, msWB uint64) *report.BenchRun {
	r := &report.BenchRun{
		Algorithm: algo, Mode: mode, Cores: cores,
		GFlops: 1, MSStageBytes: msStage, MSWriteBackBytes: msWB,
		Optimized: optimized,
	}
	if chips > 1 {
		r.Chips = chips
	}
	return r
}

// trafficRec wraps runs in an envelope and writes it to a temp file.
func trafficRec(t *testing.T, name string, runs ...*report.BenchRun) string {
	t.Helper()
	rec := report.NewBench("lu")
	rec.Runs = runs
	path := filepath.Join(t.TempDir(), name)
	if err := rec.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTrafficRatiosJoin(t *testing.T) {
	rec := &report.Bench{Runs: []*report.BenchRun{
		// A clean pair: optimized moved half the bytes.
		tRun("LU", "shared", 4, 1, false, 800, 200),
		tRun("LU", "shared", 4, 1, true, 400, 100),
		// Chips distinguish cells: same algo/mode/cores, other topology.
		tRun("LU", "shared", 4, 2, false, 1000, 0),
		tRun("LU", "shared", 4, 2, true, 1000, 0),
		// A packed pair with no MS stream carries no signal: skipped.
		tRun("LU", "packed", 4, 1, false, 0, 0),
		tRun("LU", "packed", 4, 1, true, 0, 0),
		// An optimized run with no baseline partner: an orphan.
		tRun("LU", "shared", 2, 1, true, 10, 0),
		// A pre-optimizer vintage run joins only as a baseline.
		tRun("Tradeoff", "shared", 4, 1, false, 500, 0),
	}}
	ratios, optimized, orphans := trafficRatios(rec)
	if optimized != 4 {
		t.Fatalf("optimized = %d, want 4", optimized)
	}
	if orphans != 1 {
		t.Fatalf("orphans = %d, want 1", orphans)
	}
	if len(ratios) != 2 {
		t.Fatalf("ratios = %+v, want 2 entries", ratios)
	}
	for _, r := range ratios {
		switch r.Chips {
		case 1:
			if math.Abs(r.Ratio-0.5) > 1e-12 {
				t.Fatalf("single-chip ratio = %g, want 0.5", r.Ratio)
			}
		case 2:
			if math.Abs(r.Ratio-1.0) > 1e-12 {
				t.Fatalf("dual-chip ratio = %g, want 1.0", r.Ratio)
			}
		default:
			t.Fatalf("unexpected ratio cell: %+v", r)
		}
	}
}

// A zero-byte baseline against a byte-moving optimized run must surface
// as +Inf, not be skipped — the optimizer invented traffic and the
// ratchet has to fail on it.
func TestTrafficRatiosInventedTraffic(t *testing.T) {
	rec := &report.Bench{Runs: []*report.BenchRun{
		tRun("LU", "shared", 4, 1, false, 0, 0),
		tRun("LU", "shared", 4, 1, true, 64, 0),
	}}
	ratios, _, _ := trafficRatios(rec)
	if len(ratios) != 1 || !math.IsInf(ratios[0].Ratio, 1) {
		t.Fatalf("ratios = %+v, want one +Inf entry", ratios)
	}
	path := trafficRec(t, "inf.json", rec.Runs...)
	if err := guardTraffic(io.Discard, []string{path}); err == nil {
		t.Fatal("invented traffic passed the ratchet")
	}
}

func TestGuardTrafficFreshRecordHolds(t *testing.T) {
	path := trafficRec(t, "fresh.json",
		tRun("LU", "shared", 4, 1, false, 1000, 0),
		tRun("LU", "shared", 4, 1, true, 600, 0))
	var out strings.Builder
	if err := guardTraffic(&out, []string{path}); err != nil {
		t.Fatalf("ratchet failed on an improving record: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "0.600x") {
		t.Fatalf("ratio not reported:\n%s", out.String())
	}
}

func TestGuardTrafficFailsOnRegression(t *testing.T) {
	path := trafficRec(t, "regressed.json",
		tRun("LU", "shared", 4, 1, false, 1000, 0),
		tRun("LU", "shared", 4, 1, true, 1200, 0))
	err := guardTraffic(io.Discard, []string{path})
	if err == nil || !strings.Contains(err.Error(), "above 1.0") {
		t.Fatalf("ratchet passed a record whose optimized runs moved more bytes: %v", err)
	}
}

// A record with no optimized runs at all, such as one that predates
// the field, is not a paired measurement: the ratchet fails on it
// alone, in a mixed-vintage file list, and when a fresh record
// regresses behind it.
func TestGuardTrafficMixedVintage(t *testing.T) {
	oldPath := trafficRec(t, "old.json",
		tRun("Tradeoff", "shared", 4, 1, false, 1000, 0))
	freshPath := trafficRec(t, "fresh.json",
		tRun("LU", "shared", 4, 1, false, 1000, 0),
		tRun("LU", "shared", 4, 1, true, 900, 0))

	err := guardTraffic(io.Discard, []string{oldPath})
	if err == nil || !strings.Contains(err.Error(), "no optimized runs") {
		t.Fatalf("ratchet passed a record without optimized runs: %v", err)
	}
	if err := guardTraffic(io.Discard, []string{oldPath, freshPath}); err == nil {
		t.Fatal("mixed-vintage list passed the ratchet")
	}

	badPath := trafficRec(t, "bad.json",
		tRun("LU", "shared", 4, 1, false, 100, 0),
		tRun("LU", "shared", 4, 1, true, 200, 0))
	if err := guardTraffic(io.Discard, []string{oldPath, badPath}); err == nil {
		t.Fatal("regression hidden behind a vintage record passed the ratchet")
	}
}

// Optimized runs with no baselines at all mean the record is not a
// paired measurement — an error, not a warning, because the ratchet
// would otherwise pass vacuously forever.
func TestGuardTrafficAllOrphans(t *testing.T) {
	path := trafficRec(t, "orphans.json",
		tRun("LU", "shared", 4, 1, true, 600, 0))
	if err := guardTraffic(io.Discard, []string{path}); err == nil {
		t.Fatal("unpaired record passed the ratchet")
	}
}
