package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// This file defines the machine-readable benchmark record emitted by
// `cmd/gemm -bench-json` (BENCH_gemm.json): one BenchRun per measured
// (algorithm, executor mode, core count) combination, wrapped in a
// Bench envelope that pins the environment the numbers were taken on.
// The record is the start of the repository's measured perf trajectory:
// successive PRs append comparable files rather than prose claims.

// BenchRun is one measured execution. Every shared-pipelined run plans
// at lookahead depth 1, the only depth, so a run records no depth.
type BenchRun struct {
	Algorithm   string  `json:"algorithm"`    // algo display name, or "sequential blocked"
	Mode        string  `json:"mode"`         // "naive", "view", "packed", "shared" or "shared-pipelined"
	Cores       int     `json:"cores"`        // worker goroutines
	OrderBlocks int     `json:"order_blocks"` // square workload edge, in blocks
	Q           int     `json:"q"`            // block edge, in coefficients
	N           int     `json:"n"`            // matrix order in coefficients (order_blocks·q)
	Seconds     float64 `json:"seconds"`      // wall-clock of one multiplication
	GFlops      float64 `json:"gflops"`       // 2n³ / seconds / 1e9

	// Per-level physical traffic of the measured run, in bytes, as
	// counted by the executor (parallel.Executor.Traffic). MS is the
	// memory↔shared stream, MD the shared↔core stream; in "packed" mode
	// no shared arena exists, so the memory↔core stream appears as MD
	// and the MS fields stay zero (and are omitted, as they are for the
	// "naive" and "view" modes, which move no counted bytes at all).
	MSStageBytes     uint64 `json:"ms_stage_bytes,omitempty"`     // memory→shared fills
	MSWriteBackBytes uint64 `json:"ms_writeback_bytes,omitempty"` // shared→memory write-backs
	MDStageBytes     uint64 `json:"md_stage_bytes,omitempty"`     // shared→core (or memory→core) fills
	MDWriteBackBytes uint64 `json:"md_writeback_bytes,omitempty"` // core→shared (or core→memory) write-backs

	// Chip topology of the measured run and its inter-chip stream: the
	// declared chip count the shared level was split over, the cores per
	// chip, and the bytes of the MD stream that crossed chips (foreign
	// refills downward, dirty foreign merges upward, as counted by
	// Traffic.IC). Records written before the multi-chip machine model
	// carry none of these fields; readers treat a missing or zero Chips
	// as a single-chip run (see NormalizeChips).
	Chips            int    `json:"chips,omitempty"`
	CoresPerChip     int    `json:"cores_per_chip,omitempty"`
	ICStageBytes     uint64 `json:"ic_stage_bytes,omitempty"`     // foreign-chip shared→core fills
	ICWriteBackBytes uint64 `json:"ic_writeback_bytes,omitempty"` // core→foreign-chip dirty merges

	// Overlap accounting of the shared-level modes ("shared" and
	// "shared-pipelined"), from the same repetition Seconds was taken
	// from. StageWaitSeconds is the memory↔shared staging time left on
	// the driving goroutine's critical path (in the pipelined mode, the
	// time spent blocked on the stager); ComputeSeconds the wall-time
	// inside parallel regions. OverlapEfficiency is
	// compute / (compute + stage wait): 1.0 means the staging was fully
	// hidden behind compute. Records written before the pipelined
	// executor existed carry none of these fields.
	StageWaitSeconds  float64 `json:"stage_wait_seconds,omitempty"`
	ComputeSeconds    float64 `json:"compute_seconds,omitempty"`
	OverlapEfficiency float64 `json:"overlap_efficiency,omitempty"`

	// Optimizer provenance. Optimized marks a run whose program went
	// through schedule.Optimize before replay; MSElidedBytes is the MS
	// bytes the optimizer saved versus the paired baseline run of the
	// same cell (stage + write-back), as measured, not predicted.
	// Records predating the optimizer carry neither field and read as
	// unoptimized baselines.
	Optimized     bool   `json:"optimized,omitempty"`
	MSElidedBytes uint64 `json:"ms_elided_bytes,omitempty"`
}

// NormalizeChips resolves the run's chip count for comparisons:
// records predating the multi-chip machine model (and chips=1 runs,
// which omit the field) read as one chip.
func (r *BenchRun) NormalizeChips() int {
	if r.Chips < 1 {
		return 1
	}
	return r.Chips
}

// SetTopology stamps the run's chip topology. A single-chip run stays
// field-free so the record is byte-identical to its pre-chip vintage.
func (r *BenchRun) SetTopology(chips, cores int) {
	if chips <= 1 || cores <= 0 || cores%chips != 0 {
		return
	}
	r.Chips = chips
	r.CoresPerChip = cores / chips
}

// SetOverlap fills the overlap fields from an executor's measured
// critical-path split.
func (r *BenchRun) SetOverlap(stageWait, compute time.Duration) {
	r.StageWaitSeconds = stageWait.Seconds()
	r.ComputeSeconds = compute.Seconds()
	if total := stageWait + compute; total > 0 {
		r.OverlapEfficiency = compute.Seconds() / total.Seconds()
	}
}

// Bench is the envelope written to BENCH_gemm.json. Runs holds
// pointers so the *BenchRun handles Add returns stay valid however
// much the record grows.
type Bench struct {
	Name        string      `json:"name"`
	GoVersion   string      `json:"go_version"`
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	CPUs        int         `json:"cpus"`
	CPUModel    string      `json:"cpu_model,omitempty"`    // host processor, see CPUModel
	HostSockets int         `json:"host_sockets,omitempty"` // physical packages, see HostSockets
	GoMaxProcs  int         `json:"gomaxprocs,omitempty"`   // scheduler parallelism at record time
	When        string      `json:"when"`                   // RFC 3339
	Runs        []*BenchRun `json:"runs"`
}

// NewBench returns an envelope stamped with the current environment.
func NewBench(name string) *Bench {
	return &Bench{
		Name:        name,
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		CPUModel:    CPUModel(),
		HostSockets: HostSockets(),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		When:        time.Now().UTC().Format(time.RFC3339),
	}
}

// Add records one run of a matrix product, deriving N and GFLOP/s from
// the workload shape (2n³ flops), and returns the stored run so callers
// can fill the optional per-level traffic fields.
func (b *Bench) Add(algorithm, mode string, cores, orderBlocks, q int, elapsed time.Duration) *BenchRun {
	n := orderBlocks * q
	return b.AddOp(algorithm, mode, cores, orderBlocks, q, 2*float64(n)*float64(n)*float64(n), elapsed)
}

// AddOp records one run of an arbitrary operation with an explicit flop
// count — the form used by workloads whose work is not the product's
// 2n³, such as cmd/lufact's factorisation (2n³/3). Timings below the
// clock's resolution are clamped to one nanosecond so the rate stays
// finite (an Inf would make the whole record unencodable as JSON).
func (b *Bench) AddOp(algorithm, mode string, cores, orderBlocks, q int, flops float64, elapsed time.Duration) *BenchRun {
	if elapsed <= 0 {
		elapsed = time.Nanosecond
	}
	run := &BenchRun{
		Algorithm:   algorithm,
		Mode:        mode,
		Cores:       cores,
		OrderBlocks: orderBlocks,
		Q:           q,
		N:           orderBlocks * q,
		Seconds:     elapsed.Seconds(),
		GFlops:      flops / elapsed.Seconds() / 1e9,
	}
	b.Runs = append(b.Runs, run)
	return run
}

// Speedup returns GFLOP/s ratios of mode over baseMode per
// (algorithm, cores, chips, optimized) tuple present in both modes,
// sorted by algorithm, cores, chips, then optimized. Records without a
// chips stamp (pre-chip vintage, or single-chip runs, which omit the
// field) join as one chip, and records without an optimized stamp
// (pre-optimizer vintage) join as baselines, so mixed-vintage files
// compare cleanly — and a file carrying on/off pairs never divides an
// optimized numerator by a baseline denominator. Callers pass the same
// mode names they recorded runs under (cmd/gemm passes
// parallel.Mode.String() values for both); each result echoes the
// compared modes so the ratio is self-describing.
func (b *Bench) Speedup(mode, baseMode string) []BenchSpeedup {
	type key struct {
		algo  string
		cores int
		chips int
		opt   bool
	}
	num := map[key]float64{}
	den := map[key]float64{}
	for _, r := range b.Runs {
		k := key{r.Algorithm, r.Cores, r.NormalizeChips(), r.Optimized}
		switch r.Mode {
		case mode:
			num[k] = r.GFlops
		case baseMode:
			den[k] = r.GFlops
		}
	}
	var out []BenchSpeedup
	for k, n := range num {
		if d, ok := den[k]; ok && d > 0 {
			s := BenchSpeedup{
				Algorithm: k.algo, Cores: k.cores,
				Mode: mode, BaseMode: baseMode, Ratio: n / d,
				Optimized: k.opt,
			}
			if k.chips > 1 {
				s.Chips = k.chips
			}
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Algorithm != out[j].Algorithm {
			return out[i].Algorithm < out[j].Algorithm
		}
		if out[i].Cores != out[j].Cores {
			return out[i].Cores < out[j].Cores
		}
		if out[i].Chips != out[j].Chips {
			return out[i].Chips < out[j].Chips
		}
		return !out[i].Optimized && out[j].Optimized
	})
	return out
}

// BenchSpeedup is one Mode-over-BaseMode GFLOP/s ratio.
type BenchSpeedup struct {
	Algorithm string  `json:"algorithm"`
	Cores     int     `json:"cores"`
	Chips     int     `json:"chips,omitempty"` // 0 ⇒ single chip
	Mode      string  `json:"mode"`
	BaseMode  string  `json:"base_mode"`
	Ratio     float64 `json:"ratio"`
	Optimized bool    `json:"optimized,omitempty"` // both sides ran the optimizer
}

// WriteJSON emits the envelope as indented JSON.
func (b *Bench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// WriteJSONFile writes the envelope to path.
func (b *Bench) WriteJSONFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := b.WriteJSON(f); err != nil {
		f.Close()
		return fmt.Errorf("report: writing %s: %w", path, err)
	}
	return f.Close()
}
