package repro

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/report"
)

// TestReadmeMatchesCommittedRecords pins the numbers README quotes from
// the committed benchmark records to the records themselves: the header
// facts of BENCH_gemm.json and BENCH_lu.json, and the LU optimizer's
// memory↔shared stream before and after, on every shared and
// shared-pipelined baseline/optimized pair of BENCH_lu.json. Each
// figure is rendered from the record and must appear in README, so a
// regenerated record cannot leave README quoting stale numbers.
func TestReadmeMatchesCommittedRecords(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := strings.Join(strings.Fields(string(data)), " ")
	prints := func(what, s string) {
		t.Helper()
		if !strings.Contains(readme, s) {
			t.Errorf("%s: README does not print %q", what, s)
		}
	}

	load := func(name string) *report.Bench {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		var b report.Bench
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(b.Runs) == 0 {
			t.Fatalf("%s: no runs", name)
		}
		// README: both records are n=1024 runs from a 1-CPU box.
		if b.CPUs != 1 {
			t.Errorf("%s: recorded on %d CPUs, README says a 1-CPU box", name, b.CPUs)
		}
		for _, r := range b.Runs {
			if r.N != 1024 {
				t.Errorf("%s: %s %s run at n=%d, README says n=1024", name, r.Algorithm, r.Mode, r.N)
				break
			}
		}
		return &b
	}
	load("BENCH_gemm.json")
	lu := load("BENCH_lu.json")
	prints("gemm header", "`BENCH_gemm.json` records n=1024 on the CI-class container — a 1-CPU box")

	type cell struct {
		mode         string
		cores, chips int
	}
	base := map[cell]*report.BenchRun{}
	opt := map[cell]*report.BenchRun{}
	for _, r := range lu.Runs {
		if r.Mode != "shared" && r.Mode != "shared-pipelined" {
			continue
		}
		if r.Q != 32 {
			t.Errorf("BENCH_lu.json: %s run at q=%d, README says q=32", r.Mode, r.Q)
		}
		k := cell{r.Mode, r.Cores, r.NormalizeChips()}
		if r.Optimized {
			opt[k] = r
		} else {
			base[k] = r
		}
	}
	if len(base) == 0 || len(base) != len(opt) {
		t.Fatalf("BENCH_lu.json: %d shared-level baselines, %d optimized runs; want matching pairs", len(base), len(opt))
	}
	mb := func(bytes uint64) float64 { return float64(bytes) / 1e6 }
	for k, b := range base {
		o := opt[k]
		if o == nil {
			t.Errorf("%v: baseline has no optimized twin", k)
			continue
		}
		what := fmt.Sprintf("BENCH_lu.json %s cores=%d", k.mode, k.cores)
		baseMS := b.MSStageBytes + b.MSWriteBackBytes
		optMS := o.MSStageBytes + o.MSWriteBackBytes
		if o.MSStageBytes != o.MSWriteBackBytes {
			t.Errorf("%s: optimized run stages %d bytes but writes back %d, README says the same for each",
				what, o.MSStageBytes, o.MSWriteBackBytes)
		}
		if o.MSElidedBytes != baseMS-optMS {
			t.Errorf("%s: ms_elided_bytes %d, but the pair's MS bytes differ by %d", what, o.MSElidedBytes, baseMS-optMS)
		}
		prints(what, fmt.Sprintf("`BENCH_lu.json`'s MS stream from %.1f MB staged + %.1f MB written back per factorisation to %.2f MB each",
			mb(b.MSStageBytes), mb(b.MSWriteBackBytes), mb(o.MSStageBytes)))
		prints(what, fmt.Sprintf("~%.1f%% of the baseline's MS bytes", 100*float64(optMS)/float64(baseMS)))
		prints(what, fmt.Sprintf("(`ms_elided_bytes: %d` per optimized run)", o.MSElidedBytes))
	}
	prints("lu header", "At n=1024 (q=32,")
}
