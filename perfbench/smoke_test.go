package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestManifestMatchesCommitted pins the committed BENCHMARK.json to the
// catalogue in this package; regenerate it with
// `go run . --manifest > ../BENCHMARK.json` after changing either.
func TestManifestMatchesCommitted(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("../BENCHMARK.json is stale; regenerate it with: go run . --manifest > ../BENCHMARK.json")
	}
}

func TestManifestLimits(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.ContainsAny(w.why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bad unit %q or bound %g", m.Name, m.Unit, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %g", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end-to-end metrics need setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		checkName(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("per-layer %s: bad unit %q or better %q", m.Name, m.Unit, m.Better)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want at most 128", len(perLayer))
	}
}

// TestSmoke runs every workload at its tiny size, untraced and traced,
// and checks that the summary line carries exactly the declared metrics
// with their units, that the untraced ones are positive, and that the
// text names every end-to-end metric with its unit.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seed", "7", "--seconds", "0.05", "--trace", trace, "--tiny", "--spans", t.TempDir()}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				text := strings.TrimSpace(stdout.String())
				lines := strings.Split(text, "\n")
				var res map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the JSON summary: %v", err)
				}
				if len(res) != 4 {
					t.Errorf("summary has keys %v, want correct, attempted, failed, metrics", keys(res))
				}
				var sum result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
					t.Fatal(err)
				}
				if !sum.Correct || sum.Attempted < 1 || sum.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", sum.Correct, sum.Attempted, sum.Failed)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(sum.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(sum.Metrics), len(defs))
				}
				for _, m := range defs {
					v, ok := sum.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: got %+v, want unit %s", m.Name, v, m.Unit)
					}
					if trace == "0" && !(v.Value > 0) {
						t.Errorf("end-to-end metric %s = %g, want > 0", m.Name, v.Value)
					}
				}
				if trace == "0" {
					for _, name := range []string{"setup_s", "op_s_p50", "op_s_tail", "gflops", "sim_mproducts_per_s", "failed_ratio", "mem_peak_mb"} {
						if !strings.Contains(text, "\n"+name+" ") {
							t.Errorf("text output does not name %s", name)
						}
					}
				}
				if !strings.Contains(text, "host: nproc=") {
					t.Error("result is not stamped with the host")
				}
			})
		}
	}
}

func keys(m map[string]json.RawMessage) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

func TestTailOf(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct{ n, p, beyond int }{{40, 75, 10}, {35, 71, 10}, {1000, 99, 10}, {12, 50, 5}, {5, 50, 2}} {
		got := tailOf(mk(c.n))
		if got.Percentile != c.p || got.Beyond != c.beyond {
			t.Errorf("n=%d: got p%d with %d beyond, want p%d with %d", c.n, got.Percentile, got.Beyond, c.p, c.beyond)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}
