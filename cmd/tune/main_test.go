package main

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/parallel"
	"repro/internal/tune"
)

func TestParseSweep(t *testing.T) {
	cfg, err := parseSweep("8, 16", "1,3")
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.qs) != 2 || cfg.qs[1] != 16 {
		t.Fatalf("qs = %v", cfg.qs)
	}
	if len(cfg.lookaheads) != 2 || cfg.lookaheads[1] != 3 {
		t.Fatalf("lookaheads = %v", cfg.lookaheads)
	}
	for _, bad := range [][2]string{
		{"0", "1"},
		{"8", "0"},
		{"8", "2,3"}, // no default point to measure against
	} {
		if _, err := parseSweep(bad[0], bad[1]); err == nil {
			t.Fatalf("parseSweep(%v) must fail", bad)
		}
	}
}

// TestPickKeepsDefaultInsideNoise drives pick with scripted timings
// over two grid points: the default (lookahead 1 at the first block
// edge, 1e9 flops a repetition) and one other point. Points are rated
// by GFLOP/s, not time, so a point at another block edge that does
// different work wins only on a higher rate. The warm-up round returns
// a slow outlier that must not count.
func TestPickKeepsDefaultInsideNoise(t *testing.T) {
	ms := time.Millisecond
	// Default median 9.09 GFLOP/s, spread 1.67 (10 − 8.33).
	def := []time.Duration{100 * ms, 110 * ms, 120 * ms}
	for _, tc := range []struct {
		name           string
		qs, lookaheads string
		def, other     []time.Duration // per round
		otherFlops     float64
		winner         tune.Params
	}{
		// 10.5 GFLOP/s, inside the default's spread.
		{"inside the spread loses", "8", "1,2", def, []time.Duration{95 * ms, 95 * ms, 95 * ms}, 1e9, tune.Params{Q: 8, Lookahead: 1}},
		// 11.8 GFLOP/s, beyond it.
		{"beyond the spread wins", "8", "1,2", def, []time.Duration{85 * ms, 85 * ms, 85 * ms}, 1e9, tune.Params{Q: 8, Lookahead: 2}},
		// One rep has no spread: any faster candidate wins.
		{"one rep, faster wins", "8", "1,2", []time.Duration{100 * ms}, []time.Duration{99 * ms}, 1e9, tune.Params{Q: 8, Lookahead: 2}},
		// Eight times the work in 400 ms is 20 GFLOP/s: slower, yet it wins.
		{"more work at a higher rate wins", "16,32", "1", def, []time.Duration{400 * ms, 400 * ms, 400 * ms}, 8e9, tune.Params{Q: 32, Lookahead: 1}},
		// An eighth of the work in 50 ms is 2.5 GFLOP/s: faster, yet it loses.
		{"less work at a lower rate loses", "32,16", "1", def, []time.Duration{50 * ms, 50 * ms, 50 * ms}, 1.25e8, tune.Params{Q: 32, Lookahead: 1}},
	} {
		cfg, err := parseSweep(tc.qs, tc.lookaheads)
		if err != nil {
			t.Fatal(err)
		}
		cfg.reps = len(tc.def)
		var order []bool
		calls := map[bool]int{}
		e, err := pick(cfg, "test", func(q int, tun parallel.Tuning) (time.Duration, float64, error) {
			other := q != cfg.qs[0] || tun.Lookahead != 1
			order = append(order, other)
			n := calls[other]
			calls[other]++
			if n == 0 {
				return time.Second, 1e9, nil // the warm-up round, which pick must discard
			}
			if other {
				return tc.other[n-1], tc.otherFlops, nil
			}
			return tc.def[n-1], 1e9, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, other := range order {
			if other != (i%2 == 1) || len(order) != 2*(cfg.reps+1) {
				t.Fatalf("%s: measure order %v, want a warm-up and %d rounds visiting every candidate once", tc.name, order, cfg.reps)
			}
		}
		if e.Params != tc.winner {
			t.Errorf("%s: picked %+v, want %+v", tc.name, e.Params, tc.winner)
		}
		wantBase := 1e9 / tc.def[len(tc.def)/2].Seconds() / 1e9 // def is sorted
		if e.BaselineGFlops != wantBase {
			t.Errorf("%s: baseline %.4f GFLOP/s, want the default's median %.4f", tc.name, e.BaselineGFlops, wantBase)
		}
		if e.GFlops < e.BaselineGFlops {
			t.Errorf("%s: winner %.4f GFLOP/s below the default's %.4f", tc.name, e.GFlops, e.BaselineGFlops)
		}
	}
}

// The sweep itself, at smoke size: every grid point must execute, and
// the written file must load back, match this host, and carry a winner
// plus the default baseline for both workloads.
func TestSweepSmoke(t *testing.T) {
	cfg, err := parseSweep("8", "1,2")
	if err != nil {
		t.Fatal(err)
	}
	cfg.algoName, cfg.order, cfg.n = "Shared Opt.", 2, 16
	cfg.cores, cfg.reps, cfg.seed = 2, 1, 1
	out := filepath.Join(t.TempDir(), "TUNE.json")
	if err := runSweep(cfg, out); err != nil {
		t.Fatal(err)
	}
	f, err := tune.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if !f.MatchesHost() {
		t.Fatal("freshly swept file must match the sweeping host")
	}
	if f.Candidates != 2 || f.Reps != 1 {
		t.Fatalf("provenance: candidates %d reps %d", f.Candidates, f.Reps)
	}
	for name, e := range map[string]*tune.Entry{"gemm": f.Gemm, "lu": f.LU} {
		if e == nil {
			t.Fatalf("%s entry missing", name)
		}
		if e.GFlops <= 0 || e.BaselineGFlops <= 0 {
			t.Fatalf("%s entry lacks measurements: %+v", name, e)
		}
		if e.GFlops < e.BaselineGFlops {
			t.Fatalf("%s winner %.3f slower than the default %.3f it competed against", name, e.GFlops, e.BaselineGFlops)
		}
		if _, err := e.Tuning(); err != nil {
			t.Fatalf("%s entry does not resolve: %v", name, err)
		}
	}
}
