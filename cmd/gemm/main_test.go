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

	"repro/internal/parallel"
)

func TestRunSmoke(t *testing.T) {
	if err := run("", 4, 8, 2, 1, true, 1, parallel.ModePacked, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	if err := run("Tradeoff", 4, 8, 2, 1, false, 1, parallel.ModeView, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	// The shared-physical mode must run the whole registry end to end,
	// on one chip and with the shared level split over two.
	if err := run("", 4, 8, 2, 1, true, 1, parallel.ModeShared, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	if err := run("", 4, 8, 2, 2, true, 1, parallel.ModeShared, parallel.DefaultTuning); err != nil {
		t.Fatal(err)
	}
	// So must the pipelined mode, with the tuning cli builds.
	for _, chips := range []int{1, 2} {
		if err := run("", 4, 8, 2, chips, true, 1, parallel.ModeSharedPipelined, parallel.Tuning{Optimize: true}); err != nil {
			t.Fatalf("shared-pipelined, chips=%d: %v", chips, err)
		}
	}
	if err := run("nope", 4, 8, 2, 1, false, 1, parallel.ModePacked, parallel.DefaultTuning); err == nil {
		t.Fatal("unknown algorithm must fail")
	}
	if err := run("", 4, 8, 2, 3, true, 1, parallel.ModeShared, parallel.DefaultTuning); err == nil {
		t.Fatal("chips that do not divide p must fail validation")
	}
}

func TestBenchSmoke(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_gemm.json")
	if err := bench(path, "Shared Opt.", 4, 8, []int{1, 2}, []int{1, 2}, 1, 1, true); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Name string `json:"name"`
		Runs []struct {
			Algorithm        string  `json:"algorithm"`
			Mode             string  `json:"mode"`
			Cores            int     `json:"cores"`
			Chips            int     `json:"chips"`
			CoresPerChip     int     `json:"cores_per_chip"`
			GFlops           float64 `json:"gflops"`
			MSStageBytes     uint64  `json:"ms_stage_bytes"`
			MSWriteBackBytes uint64  `json:"ms_writeback_bytes"`
			MDStageBytes     uint64  `json:"md_stage_bytes"`
			MDWriteBackBytes uint64  `json:"md_writeback_bytes"`
			ICStageBytes     uint64  `json:"ic_stage_bytes"`
			ComputeSeconds   float64 `json:"compute_seconds"`
			Optimized        bool    `json:"optimized"`
			MSElidedBytes    uint64  `json:"ms_elided_bytes"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	// 1 naive + view × 2 core counts + the 3 staging modes × 2 core
	// counts × 2 optimize settings at chips=1 + the 2 shared-level modes
	// × 2 optimize settings at (p=2, chips=2); chips=2 cannot split p=1
	// and is skipped, and view has no schedule stream to optimize.
	if rec.Name != "gemm" || len(rec.Runs) != 19 {
		t.Fatalf("record has %d runs, want 19: %+v", len(rec.Runs), rec)
	}
	sharedMS := map[string]uint64{}
	multiChip, optimized := 0, 0
	for _, r := range rec.Runs {
		if r.GFlops <= 0 {
			t.Fatalf("non-positive GFLOP/s in %+v", r)
		}
		if r.Optimized {
			optimized++
		} else if r.MSElidedBytes != 0 {
			t.Fatalf("baseline run carries elided bytes: %+v", r)
		}
		// A staged algorithm must report both physical streams in the
		// shared-level modes (plus the stage-wait/compute split), only
		// the distributed one in packed mode, and none in view/naive.
		switch r.Mode {
		case "shared", "shared-pipelined":
			if r.MSStageBytes == 0 || r.MDStageBytes == 0 || r.MSWriteBackBytes == 0 {
				t.Fatalf("%s run missing per-level traffic: %+v", r.Mode, r)
			}
			if r.ComputeSeconds <= 0 {
				t.Fatalf("%s run missing overlap split: %+v", r.Mode, r)
			}
			if r.Chips > 1 {
				multiChip++
				if r.CoresPerChip != r.Cores/r.Chips {
					t.Fatalf("chips=%d run has cores_per_chip=%d, want %d: %+v", r.Chips, r.CoresPerChip, r.Cores/r.Chips, r)
				}
				// Shared Opt. declares no home policy, so every block
				// homes on chip 0: each refill by a chip-1 core crosses.
				if r.ICStageBytes == 0 {
					t.Fatalf("multi-chip run of an un-homed schedule counts no inter-chip bytes: %+v", r)
				}
			} else {
				sharedMS[r.Mode] += r.MSStageBytes
				if r.ICStageBytes != 0 {
					t.Fatalf("single-chip run counts inter-chip bytes: %+v", r)
				}
			}
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
	if multiChip != 4 {
		t.Fatalf("record has %d multi-chip runs, want 4 (shared + shared-pipelined at p=2, chips=2, baseline and optimized)", multiChip)
	}
	if optimized != 8 {
		t.Fatalf("record has %d optimized runs, want 8 (3 staging modes × 2 cores + 2 shared-level modes at chips=2)", optimized)
	}
	// Pipelining may only change timing, never traffic.
	if sharedMS["shared"] != sharedMS["shared-pipelined"] {
		t.Fatalf("pipelined MS bytes %d differ from serial %d", sharedMS["shared-pipelined"], sharedMS["shared"])
	}
	// Which runs the record holds, in order, and every count they carry.
	if got, want := recordHash(t, raw), "cdf7251730b68483"; got != want {
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

// TestBenchModeFlags drives the command line into benchmark mode with
// lists that fail to parse, so nothing is measured: every single-run
// flag given must be warned about as ignored, and the error must name
// the list it came from.
func TestBenchModeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		warn []string // flags warned about
		bad  string   // the flag the error names
	}{
		{[]string{"-bench-cores", "0"}, nil, "-bench-cores"},
		{[]string{"-chips", "2", "-bench-cores", "2", "-bench-chips", "0"}, []string{"chips"}, "-bench-chips"},
		{[]string{"-p", "2", "-mode", "shared", "-verify=false", "-bench-cores", "x"}, []string{"mode", "p", "verify"}, "-bench-cores"},
		{[]string{"-faults", "panic@1:*", "-optimize=false", "-bench-cores", "0"}, []string{"faults"}, "-bench-cores"},
	} {
		var stderr strings.Builder
		args := append([]string{"-bench-json", filepath.Join(t.TempDir(), "b.json")}, tc.args...)
		err := cli(args, &stderr)
		if err == nil || !strings.Contains(err.Error(), tc.bad) {
			t.Errorf("%v: error %v does not name %s", tc.args, err, tc.bad)
		}
		got := stderr.String()
		if strings.Count(got, "\n") != len(tc.warn) {
			t.Errorf("%v: warnings\n%s\nwant one line each for %v", tc.args, got, tc.warn)
		}
		for _, f := range tc.warn {
			if !strings.Contains(got, "gemm: -"+f+" is ignored in benchmark mode") {
				t.Errorf("%v: no warning for -%s in\n%s", tc.args, f, got)
			}
		}
	}
}

// TestChaosRecovers runs CI's chaos smoke cases in process, with the
// CLI's default tuning (optimizer on): each injected fault must surface
// as a RunError, and the Reset executor must re-run clean.
func TestChaosRecovers(t *testing.T) {
	for _, tc := range []struct {
		spec string
		mode parallel.Mode
	}{
		{"panic@1:*", parallel.ModePacked},
		{"stagerr@*:3", parallel.ModeShared},
		{"corrupt@*:9", parallel.ModeSharedPipelined},
	} {
		out, err := captureStdout(t, func() error {
			return chaos("", tc.spec, 4, 8, 2, 1, 1, tc.mode, parallel.Tuning{Optimize: true})
		})
		if err != nil {
			t.Errorf("%s (%v): %v", tc.spec, tc.mode, err)
		} else if !strings.Contains(out, "faulted as expected") {
			t.Errorf("%s (%v): the fault never fired:\n%s", tc.spec, tc.mode, out)
		}
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
