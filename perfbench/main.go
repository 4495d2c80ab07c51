// Command perfbench is the repository's benchmark. One run sets up one
// workload from a seed, drives it in a closed loop with one caller for a
// fixed time, checks every op's output, and prints its metrics by name
// with their units; the last line of standard output is a JSON summary.
//
//	perfbench --workload gemm-replay --seed 1 --seconds 20 --trace 0
//
// --trace 0 is the untraced run and reports the end-to-end metrics;
// --trace 1 is the separate traced run: it records a span around every
// call the benchmark makes into a layer, reports the per-layer metrics,
// and writes the spans as a Chrome trace-event file under --spans.
// --manifest prints BENCHMARK.json, the description a harness reads.
//
// It measures the program from outside only: every timing is taken
// around a call to a public function of internal/matrix, parallel,
// schedule, algo, lu or core. Run it through run.sh, which builds it
// from the checkout's sources first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	tiny     bool
	spans    string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", runSeconds, "how long the op loop measures, in seconds")
	traceFlag := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	fs.BoolVar(&o.tiny, "tiny", false, "run the workload at its smoke-test size")
	fs.StringVar(&o.spans, "spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span file to")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		data, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	o.trace = *traceFlag == 1
	res, err := bench(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// result is the summary line a harness reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// unaccountedTolerance is the share of a replay's wall time that may
// fall outside the executor's stage-wait and compute split before the
// breakdown is flagged as not reconciling.
const unaccountedTolerance = 0.10

// minOps keeps a run meaningful when one op outlasts --seconds.
const minOps = 4

// timeSetups sets the workload up repeatedly and returns the time of
// one set-up per batch and the instance to measure. A set-up shorter
// than batchTarget is timed in batches, as perCall does, so the clock's
// resolution does not dominate it. The untraced run repeats batches
// until half a second is spent and at least three are done; the traced
// run sets up once.
func timeSetups(w workload, cfg config, once bool) ([]float64, instance, error) {
	var times []float64
	var total time.Duration
	batch := 1
	for {
		// Every batch starts from a collected heap, so it does not pay
		// for the garbage of the batch before it.
		runtime.GC()
		ins := make([]instance, 0, batch)
		start := time.Now()
		for range batch {
			in, err := w.setup(cfg)
			if err != nil {
				closeAll(ins)
				return nil, nil, err
			}
			ins = append(ins, in)
		}
		d := time.Since(start)
		last := ins[len(ins)-1]
		closeAll(ins[:len(ins)-1])
		times = append(times, d.Seconds()/float64(batch))
		total += d
		if once || (len(times) >= 3 && total >= 500*time.Millisecond) || len(times) >= 200 {
			return times, last, nil
		}
		last.close()
		if d < batchTarget {
			batch = int(math.Ceil(float64(batch) * float64(batchTarget) / float64(d+1)))
		}
	}
}

func closeAll(ins []instance) {
	for _, in := range ins {
		in.close()
	}
}

func bench(o options, out io.Writer) (result, error) {
	w, err := workloadByName(o.workload)
	if err != nil {
		return result{}, err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	p := min(2, runtime.NumCPU())
	tr := newTracer()
	cfg := config{seed: o.seed, p: p, tiny: o.tiny, tr: tr}
	stamp := map[string]any{
		"workload": w.name, "seed": o.seed, "trace": o.trace, "tiny": o.tiny,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "team_p": p,
		"cpu": report.CPUModel(), "go": runtime.Version(),
	}
	fmt.Fprintf(out, "perfbench workload=%s seed=%d trace=%v seconds=%g tiny=%v\n", w.name, o.seed, o.trace, o.seconds, o.tiny)
	fmt.Fprintf(out, "why: %s\n", w.why)
	fmt.Fprintf(out, "host: nproc=%d gomaxprocs=%d team_p=%d cpu=%q go=%s\n",
		stamp["nproc"], stamp["gomaxprocs"], p, stamp["cpu"], stamp["go"])

	tr.on = o.trace
	setups, inst, err := timeSetups(w, cfg, o.trace)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	correct := true
	if err := inst.reference(); err != nil {
		correct = false
		fmt.Fprintf(out, "check failed at set-up: %v\n", err)
	}
	runtime.GC()

	// The heap in use grows to about the collector's goal before every
	// collection, so the peak heap is at least the largest goal and at
	// least the largest heap in use seen. Both are read between ops; the
	// goal alone is the steadier of the two, since the heap in use is
	// caught at a random point of its growth.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	peak := max(before.NextGC, before.HeapInuse)
	var all, traced, untraced []time.Duration
	failed := 0
	loopStart := time.Now()
	for n := 0; n < minOps || time.Since(loopStart).Seconds() < o.seconds; n++ {
		tr.on = o.trace && n%2 == 1
		if _, err := tr.timed("bench.prepare", n, -1, inst.prepare); err != nil {
			return result{}, err
		}
		start := time.Now()
		err := inst.op(n)
		d := time.Since(start)
		if err == nil {
			_, err = tr.timed("bench.check", n, -1, inst.check)
		}
		if err != nil {
			failed++
			if failed <= 3 {
				fmt.Fprintf(out, "op %d failed: %v\n", n, err)
			}
		}
		all = append(all, d)
		if tr.on {
			traced = append(traced, d)
		} else {
			untraced = append(untraced, d)
		}
		if !o.trace {
			runtime.ReadMemStats(&after)
			peak = max(peak, after.NextGC, after.HeapInuse)
		}
	}
	runtime.ReadMemStats(&after)
	res := result{Correct: correct && failed == 0, Attempted: len(all), Failed: failed, Metrics: map[string]value{}}

	if !o.trace {
		p50 := median(seconds(all))
		t := tailOf(seconds(all))
		e2e := map[string]float64{
			"setup_s":     median(setups),
			"op_s_p50":    p50,
			"op_s_tail":   t.Value,
			"mem_peak_mb": float64(peak) / 1e6,
		}
		for _, m := range endToEnd {
			res.Metrics[m.Name] = value{Value: finite(e2e[m.Name]), Unit: m.Unit}
		}
		fmt.Fprintf(out, "setup_s %.6g s (median of %d timed batches of set-ups)\n", e2e["setup_s"], len(setups))
		fmt.Fprintf(out, "op_s_p50 %.6g s (%d ops)\n", p50, len(all))
		fmt.Fprintf(out, "op_s_tail %.6g s (p%d, %d of %d samples beyond it)\n", t.Value, t.Percentile, t.Beyond, len(all))
		gflop, mprod := inst.work()
		printRate(out, "gflops", gflop/p50, "GFLOP/s", gflop > 0)
		printRate(out, "sim_mproducts_per_s", mprod/p50, "1e6 products/s", mprod > 0)
		fmt.Fprintf(out, "failed_ratio %.6g ratio (%d of %d ops)\n", float64(failed)/float64(len(all)), failed, len(all))
		fmt.Fprintf(out, "mem_peak_mb %.6g MB (largest Go heap goal or heap in use, read after set-up and after every op)\n", e2e["mem_peak_mb"])
		fmt.Fprintf(out, "op_s samples in order: %s\n", formatSamples(all))
		return res, nil
	}

	tr.on = true
	ls := layerSet{}
	if err := inst.layers(ls); err != nil {
		return result{}, err
	}
	tracedP50, untracedP50 := median(seconds(traced)), median(seconds(untraced))
	ls["trace.op_s_p50"] = tracedP50
	ls["trace.overhead_s"] = tracedP50 - untracedP50
	ls["runtime.alloc_mb_per_op"] = float64(after.TotalAlloc-before.TotalAlloc) / 1e6 / float64(len(all))
	ls["runtime.gc_pause_s_per_op"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e9 / float64(len(all))
	for _, m := range perLayer {
		v, ok := ls[m.Name]
		res.Metrics[m.Name] = value{Value: finite(v), Unit: m.Unit}
		if ok {
			fmt.Fprintf(out, "%-32s %14.6g %s\n", m.Name, v, m.Unit)
		} else {
			fmt.Fprintf(out, "%-32s %14s (not exercised by %s; reported as 0)\n", m.Name, "n/a", w.name)
		}
	}
	fmt.Fprintf(out, "tracing overhead: traced op_s_p50 %.6g s − untraced op_s_p50 %.6g s = %.3g s (%d traced, %d untraced ops, interleaved)\n",
		tracedP50, untracedP50, tracedP50-untracedP50, len(traced), len(untraced))
	printBreakdown(out, ls)
	path := filepath.Join(o.spans, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.write(path, stamp); err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(tr.spans), path)
	return res, nil
}

func printRate(out io.Writer, name string, v float64, unit string, ok bool) {
	if ok {
		fmt.Fprintf(out, "%s %.6g %s\n", name, v, unit)
	} else {
		fmt.Fprintf(out, "%s n/a (not defined for this workload)\n", name)
	}
}

// printBreakdown reconciles the traced run's parts with its totals: the
// replay split against the replay wall time, the compile steps against
// the compile time, and the paper's Tdata prediction against the
// measured staging time.
func printBreakdown(out io.Writer, ls layerSet) {
	replay, ok := ls["parallel.replay_s"]
	if !ok {
		return
	}
	parts := ls["parallel.stage_wait_s"] + ls["parallel.compute_s"] + ls["parallel.unaccounted_s"]
	share := ls["parallel.unaccounted_share"]
	verdict := "ok"
	if math.Abs(share) > unaccountedTolerance {
		verdict = "FLAG: the executor's split does not account for the replay"
	}
	fmt.Fprintf(out, "reconcile replay: stage_wait %.4g + compute %.4g + unaccounted %.4g = %.4g s against replay_s %.4g s; unaccounted share %.1f%% (tolerance %.0f%%): %s\n",
		ls["parallel.stage_wait_s"], ls["parallel.compute_s"], ls["parallel.unaccounted_s"], parts, replay,
		100*share, 100*unaccountedTolerance, verdict)
	steps := ls["schedule.optimize_s"] + ls["schedule.measure_s"] + ls["schedule.plan_s"] + ls["schedule.emit_s"]
	fmt.Fprintf(out, "reconcile compile: first_run %.4g − replay %.4g = compile %.4g s; optimize %.4g + measure %.4g + plan %.4g + emit %.4g = %.4g s; the rest, %.4g s, is validation, recording and arena set-up inside the first Run, plus the noise between separately timed calls\n",
		ls["parallel.first_run_s"], replay, ls["parallel.compile_s"],
		ls["schedule.optimize_s"], ls["schedule.measure_s"], ls["schedule.plan_s"], ls["schedule.emit_s"], steps,
		ls["parallel.compile_s"]-steps)
	ratio := "n/a (staging overlaps compute in this mode)"
	if r, ok := ls["model.ms_ratio"]; ok {
		ratio = fmt.Sprintf("%.3g", r)
	}
	fmt.Fprintf(out, "reconcile model: Tdata = MS/σS + MD/σD predicts %.4g s from MS %.4g bytes, busiest core's MD, σS %.3g GB/s and σD %.3g GB/s; measured stage_wait %.4g s; model.ms_ratio %s\n",
		ls["model.tdata_pred_s"], ls["parallel.ms_bytes"], ls["parallel.sigma_s_gbps"], ls["parallel.sigma_d_gbps"],
		ls["parallel.stage_wait_s"], ratio)
}

func formatSamples(ds []time.Duration) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%.4g", d.Seconds())
	}
	return strings.Join(parts, " ")
}

// finite maps a value JSON cannot carry (a ratio over a zero) to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
