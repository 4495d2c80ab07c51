package main

import (
	"bytes"
	"encoding/json"
)

// metricDef declares one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// runSeconds is how long one run measures when the benchmark is driven
// through BENCHMARK.json.
const runSeconds = 20

// endToEnd lists what a caller of the library sees for one workload.
// Every one of them is positive on every workload, so a relative bound
// is meaningful. The workload-specific throughputs (gflops,
// sim_mproducts_per_s) and failed_ratio are printed beside them but are
// not bounded: each is either zero or undefined on some workload, and
// op_s_p50 already bounds throughput at a fixed op.
//
// The time bounds are wide because they must hold on a shared 2-CPU
// host: there the median op time of the memory-bound workloads
// (gemm-fine, sim-paper) moved by 7% to 34% (quartile spread over five
// seeds) from one hour to the next, while gemm-replay stayed within 3%.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_s_p50", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "op_s_tail", Unit: "s", Better: "lower", Bound: 0.24},
	{Name: "mem_peak_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// Per-algorithm metric suffixes of the simulator workload.
var simAlgos = []struct{ name, key string }{
	{"Shared Opt.", "shared_opt"},
	{"Distributed Opt.", "distributed_opt"},
	{"Tradeoff", "tradeoff"},
}

// perLayer lists the traced run's metrics, named by module. A workload
// that does not exercise a layer reports it as 0 and prints "n/a".
var perLayer = func() []metricDef {
	ms := []metricDef{
		{Name: "matrix.kernel_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "matrix.pack_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "matrix.seq_gflops", Unit: "GFLOP/s", Better: "higher"},
		{Name: "parallel.first_run_s", Unit: "s", Better: "lower"},
		{Name: "parallel.replay_s", Unit: "s", Better: "lower"},
		{Name: "parallel.compile_s", Unit: "s", Better: "lower"},
		{Name: "parallel.stage_wait_s", Unit: "s", Better: "lower"},
		{Name: "parallel.compute_s", Unit: "s", Better: "lower"},
		{Name: "parallel.unaccounted_s", Unit: "s", Better: "lower"},
		{Name: "parallel.unaccounted_share", Unit: "ratio", Better: "lower"},
		{Name: "parallel.overlap", Unit: "ratio", Better: "higher"},
		{Name: "parallel.ms_bytes", Unit: "bytes", Better: "lower"},
		{Name: "parallel.md_bytes", Unit: "bytes", Better: "lower"},
		{Name: "parallel.md_imbalance", Unit: "ratio", Better: "lower"},
		{Name: "parallel.sigma_s_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "parallel.sigma_d_gbps", Unit: "GB/s", Better: "higher"},
		{Name: "parallel.barrier_us", Unit: "us", Better: "lower"},
		{Name: "schedule.regions", Unit: "count", Better: "lower"},
		{Name: "schedule.core_ops", Unit: "count", Better: "lower"},
		{Name: "schedule.driver_ops", Unit: "count", Better: "lower"},
		{Name: "schedule.emit_s", Unit: "s", Better: "lower"},
		{Name: "schedule.optimize_s", Unit: "s", Better: "lower"},
		{Name: "schedule.measure_s", Unit: "s", Better: "lower"},
		{Name: "schedule.plan_s", Unit: "s", Better: "lower"},
		{Name: "schedule.elided_blocks", Unit: "count", Better: "higher"},
		{Name: "algo.schedule_s", Unit: "s", Better: "lower"},
		{Name: "lu.newrun_s", Unit: "s", Better: "lower"},
	}
	for _, a := range simAlgos {
		ms = append(ms, metricDef{Name: "core.run_s." + a.key, Unit: "s", Better: "lower"})
	}
	for _, a := range simAlgos {
		ms = append(ms,
			metricDef{Name: "algo.sim_ms." + a.key, Unit: "blocks", Better: "lower"},
			metricDef{Name: "algo.sim_md." + a.key, Unit: "blocks", Better: "lower"},
			metricDef{Name: "bounds.ms_ratio." + a.key, Unit: "ratio", Better: "lower"})
	}
	return append(ms,
		metricDef{Name: "model.tdata_pred_s", Unit: "s", Better: "lower"},
		metricDef{Name: "model.ms_ratio", Unit: "ratio", Better: "lower"},
		metricDef{Name: "runtime.alloc_mb_per_op", Unit: "MB", Better: "lower"},
		metricDef{Name: "runtime.gc_pause_s_per_op", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.op_s_p50", Unit: "s", Better: "lower"},
		metricDef{Name: "trace.overhead_s", Unit: "s", Better: "lower"},
	)
}()

// manifest renders BENCHMARK.json, the file that tells a harness how to
// run this benchmark and what it reports. The committed copy at the
// repository root must equal this rendering (see the smoke test).
func manifest() ([]byte, error) {
	type workloadEntry struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string        `json:"command"`
		Paths      []string        `json:"paths"`
		RunSeconds int             `json:"run_seconds"`
		Workloads  []workloadEntry `json:"workloads"`
		EndToEnd   []e2eEntry      `json:"end_to_end"`
		PerLayer   []layerEntry    `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, workloadEntry{Name: w.name, Why: w.why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{Name: m.Name, Unit: m.Unit, Better: m.Better})
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
