package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lu"
	"repro/internal/parallel"
)

func TestRunSmoke(t *testing.T) {
	for _, mode := range []parallel.Mode{parallel.ModePacked, parallel.ModeView, parallel.ModeShared, parallel.ModeSharedPipelined} {
		if err := run(48, 8, 2, 1, true, 1, mode, parallel.DefaultTuning); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
	}
	// Ragged n mod q ≠ 0 must run end to end too, as must the shared
	// level split over two chips (ragged and square).
	if err := run(37, 8, 2, 1, true, 1, parallel.ModePacked, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	if err := run(48, 8, 2, 2, true, 1, parallel.ModeShared, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	if err := run(37, 8, 2, 2, true, 1, parallel.ModeShared, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	if err := run(0, 8, 2, 1, false, 1, parallel.ModePacked, parallel.DefaultTuning); err == nil {
		t.Fatal("n=0 must fail")
	}
	if err := run(48, 8, 2, 3, false, 1, parallel.ModeShared, parallel.DefaultTuning); err == nil {
		t.Fatal("chips that do not divide p must fail validation")
	}
}

func TestBenchSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_lu.json")
	if err := bench(path, 48, 8, []int{1, 2}, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Name string `json:"name"`
		Runs []struct {
			Algorithm      string  `json:"algorithm"`
			Mode           string  `json:"mode"`
			N              int     `json:"n"`
			GFlops         float64 `json:"gflops"`
			MSStageBytes   uint64  `json:"ms_stage_bytes"`
			MDStageBytes   uint64  `json:"md_stage_bytes"`
			ComputeSeconds float64 `json:"compute_seconds"`
			Optimized      bool    `json:"optimized"`
			MSElidedBytes  uint64  `json:"ms_elided_bytes"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	// 1 naive + view × 2 core counts + the 3 staging modes × 2 core
	// counts × 2 optimize settings (view has no schedule to optimize).
	if rec.Name != "lu" || len(rec.Runs) != 15 {
		t.Fatalf("record has %d runs, want 15: %+v", len(rec.Runs), rec)
	}
	sharedMS := map[string]uint64{}
	optimized, elided := 0, uint64(0)
	for _, r := range rec.Runs {
		if r.GFlops <= 0 || r.N != 48 {
			t.Fatalf("malformed run %+v", r)
		}
		if r.Optimized {
			optimized++
			elided += r.MSElidedBytes
		} else if r.MSElidedBytes != 0 {
			t.Fatalf("baseline run carries elided bytes: %+v", r)
		}
		switch r.Mode {
		case "shared", "shared-pipelined":
			if r.MSStageBytes == 0 || r.MDStageBytes == 0 {
				t.Fatalf("%s run missing per-level traffic: %+v", r.Mode, r)
			}
			if r.ComputeSeconds <= 0 {
				t.Fatalf("%s run missing overlap split: %+v", r.Mode, r)
			}
			sharedMS[r.Mode] += r.MSStageBytes
		case "packed":
			if r.MSStageBytes != 0 || r.MDStageBytes == 0 {
				t.Fatalf("packed run traffic malformed: %+v", r)
			}
		default:
			if r.MSStageBytes != 0 || r.MDStageBytes != 0 {
				t.Fatalf("%s run must move no counted bytes: %+v", r.Mode, r)
			}
		}
	}
	// Pipelining may only change timing, never traffic.
	if sharedMS["shared"] != sharedMS["shared-pipelined"] {
		t.Fatalf("pipelined MS bytes %d differ from serial %d", sharedMS["shared-pipelined"], sharedMS["shared"])
	}
	if optimized != 6 {
		t.Fatalf("record has %d optimized runs, want 6 (3 staging modes × 2 core counts)", optimized)
	}
	// The headline: the optimizer keeps the LU panel tiles resident, so
	// the optimized shared-level runs must measure elided MS bytes.
	if elided == 0 {
		t.Fatal("no optimized run measured any elided MS bytes")
	}
	// Which runs the record holds, in order, and every count they carry.
	if got, want := recordHash(t, raw), "141a45ca7a7585bd"; got != want {
		t.Fatalf("record hash %s, want %s", got, want)
	}
}

// recordHash returns the FNV-64a hash of a bench record's runs in
// record order, each with every field but its five timings (seconds,
// gflops, stage_wait_seconds, compute_seconds, overlap_efficiency).
func recordHash(t *testing.T, raw []byte) string {
	t.Helper()
	var rec struct {
		Runs []map[string]any `json:"runs"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	for _, r := range rec.Runs {
		for _, f := range []string{"seconds", "gflops", "stage_wait_seconds", "compute_seconds", "overlap_efficiency"} {
			delete(r, f)
		}
		b, err := json.Marshal(r) // sorts the keys
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s\n", b)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestBenchModeFlags drives the command line into benchmark mode with a
// core list that fails to parse, so nothing is measured: every
// single-run flag given must be warned about as ignored.
func TestBenchModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		warn []string // flags warned about
	}{
		{nil, nil},
		{[]string{"-chips", "2"}, []string{"chips"}},
		{[]string{"-p", "2", "-mode", "shared", "-verify=false"}, []string{"mode", "p", "verify"}},
		{[]string{"-faults", "panic@0:*", "-singular-at", "3", "-n", "64"}, []string{"faults", "singular-at"}},
	} {
		var stderr strings.Builder
		args := append([]string{"-bench-json", filepath.Join(t.TempDir(), "b.json"), "-bench-cores", "0"}, tc.args...)
		if err := cli(args, &stderr); err == nil || !strings.Contains(err.Error(), "-bench-cores") {
			t.Errorf("%v: error %v does not name -bench-cores", tc.args, err)
		}
		got := stderr.String()
		if strings.Count(got, "\n") != len(tc.warn) {
			t.Errorf("%v: warnings\n%s\nwant one line each for %v", tc.args, got, tc.warn)
		}
		for _, f := range tc.warn {
			if !strings.Contains(got, "lufact: -"+f+" is ignored in benchmark mode") {
				t.Errorf("%v: no warning for -%s in\n%s", tc.args, f, got)
			}
		}
	}
}

// TestChaosRecovers runs CI's LU chaos smoke cases in process, one per
// physical mode, with the CLI's default tuning (optimizer on): each
// injected fault must surface as a RunError, and the Reset executor
// must re-run bitwise clean.
func TestChaosRecovers(t *testing.T) {
	for _, tc := range []struct {
		spec string
		mode parallel.Mode
	}{
		{"panic@1:*", parallel.ModePacked},
		{"panic@0:*", parallel.ModeShared},
		{"corrupt@*:9", parallel.ModeSharedPipelined},
	} {
		out, err := captureStdout(t, func() error {
			return chaos(tc.spec, 64, 8, 2, 1, 1, tc.mode, parallel.Tuning{Optimize: true})
		})
		if err != nil {
			t.Errorf("%s (%v): %v", tc.spec, tc.mode, err)
		} else if !strings.Contains(out, "faulted as expected") {
			t.Errorf("%s (%v): the fault never fired:\n%s", tc.spec, tc.mode, out)
		}
	}
}

// TestSingularRunNamesStep runs CI's singular smoke case in process: the
// error must name the vanishing pivot's block step.
func TestSingularRunNamesStep(t *testing.T) {
	err := singularRun(64, 8, 2, 1, 1, parallel.ModeShared, parallel.Tuning{Optimize: true}, 3)
	if step, ok := lu.SingularStep(err); !ok || step != 3 {
		t.Fatalf("SingularStep = (%d, %v), want (3, true); error: %v", step, ok, err)
	}
}

// captureStdout runs f with os.Stdout redirected into a pipe and
// returns what f printed, with f's error.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out := make(chan string)
	go func() {
		// A read error leaves the output short, which the caller's
		// check then reports.
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	stdout := os.Stdout
	os.Stdout = w
	err = f()
	os.Stdout = stdout
	w.Close()
	return <-out, err
}
