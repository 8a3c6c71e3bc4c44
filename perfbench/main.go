// Command perfbench is the sfcacd benchmark. One run executes one named
// workload for a fixed time, checks the program's outputs, and prints
// one JSON object as the last line of standard output:
//
//	perfbench --workload table12 --seed 2013 --seconds 20 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics through the
// public entry points users call (experiments.RunTable12, incr.State,
// serve.NewHandler) with the benchmark's own tracing off, timings
// calibrated against a reference kernel (see calibrate.go). With
// --trace 1 it instead times each call into a layer's public functions,
// records the spans in memory, writes them to --spans at exit, and
// reports the per-layer metrics. Every cost knob of the program stays
// at its zero value, so the runs measure the default paths.
//
//	perfbench compare parent.jsonl change.jsonl
//
// compares two result sets recorded with --record (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"
)

// defaultSeed is the seed whose outputs have committed digests.
const defaultSeed = 2013

// metricSpec names a reported metric and its unit.
type metricSpec struct {
	Name, Unit string
}

// endToEnd lists the metrics every untraced run reports, on every
// workload. An operation is one full Tables I-II sweep (table12,
// sparse12), one tick of all four maintained curves (drift), or one
// HTTP request (serve).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"ops_per_s", "1/s"},
	{"peak_rss_mib", "MiB"},
}

// perLayer lists the metrics every traced run reports, on every
// workload; a layer the workload does not exercise reports 0. Timings
// are per operation of the traced pass (per sweep, per tick, per
// request or call), as wall time (_ms, _us) and process CPU time
// (_cpu_ms, _cpu_us).
var perLayer = []metricSpec{
	{"dist.sample_ms", "ms"}, {"dist.sample_cpu_ms", "ms"},
	{"sfc.order_ms", "ms"}, {"sfc.order_cpu_ms", "ms"}, {"sfc.order_ns_per_point", "ns"},
	{"acd.assign_ms", "ms"}, {"acd.assign_cpu_ms", "ms"},
	{"keynav.build_ms", "ms"}, {"keynav.build_cpu_ms", "ms"},
	{"fmmmodel.nfi_ms", "ms"}, {"fmmmodel.nfi_cpu_ms", "ms"},
	{"fmmmodel.ffi_ms", "ms"}, {"fmmmodel.ffi_cpu_ms", "ms"},
	{"fmmmodel.ffi_gap_ms", "ms"},
	{"commmat.build_nfi_ms", "ms"}, {"commmat.build_nfi_cpu_ms", "ms"},
	{"commmat.build_ffi_ms", "ms"}, {"commmat.build_ffi_cpu_ms", "ms"},
	{"commmat.events", "count"}, {"commmat.pairs", "count"},
	{"commmat.dedup_ratio", "ratio"}, {"commmat.build_ns_per_event", "ns"},
	{"commmat.contract_ms", "ms"}, {"commmat.contract_cpu_ms", "ms"},
	{"commmat.contract_ns_per_pair", "ns"}, {"topology.distance_queries", "count"},
	{"experiments.parallel_eff", "ratio"}, {"mem.alloc_mib_per_sweep", "MiB"},
	{"incr.tick_ms", "ms"}, {"incr.tick_cpu_ms", "ms"},
	{"incr.acd_ms", "ms"}, {"incr.acd_cpu_ms", "ms"},
	{"incr.rebuild_ms", "ms"}, {"incr.rebuild_cpu_ms", "ms"},
	{"incr.moved", "count"}, {"incr.displaced", "count"}, {"incr.owner_moves", "count"},
	{"incr.touched", "count"}, {"incr.repartitions", "count"}, {"incr.touched_per_moved", "ratio"},
	{"serve.do_hit_us", "us"}, {"serve.do_hit_cpu_us", "us"},
	{"serve.http_us", "us"}, {"serve.miss_overhead_ms", "ms"},
	{"serve.computations_per_miss", "ratio"},
	{"resultcache.get_us", "us"}, {"resultcache.get_cpu_us", "us"},
	{"resultcache.hit_ratio", "ratio"},
	{"experiments.compute_ms", "ms"}, {"experiments.compute_cpu_ms", "ms"},
	{"trace.overhead_frac", "ratio"}, {"trace.unattributed_frac", "ratio"},
}

// config is one run's settings.
type config struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil on untraced runs
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's operation counts and metrics. Workloads
// report values by name; the units come from the metric lists.
type report struct {
	attempted, failed int64
	values            map[string]float64
	stdout, stderr    io.Writer
}

func newReport(stdout, stderr io.Writer) *report {
	return &report{values: make(map[string]float64), stdout: stdout, stderr: stderr}
}

// op counts one attempted operation, failed unless ok.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// fail counts one failed operation and says why on standard error.
func (r *report) fail(format string, args ...any) {
	r.op(false)
	fmt.Fprintf(r.stderr, "perfbench: check failed: "+format+"\n", args...)
}

// set records a metric value.
func (r *report) set(name string, v float64) { r.values[name] = v }

// note prints a human-readable line (a named figure, its unit, and its
// sample count) on standard output, above the JSON result.
func (r *report) note(name string, v float64, unit string, samples int) {
	fmt.Fprintf(r.stdout, "perfbench: %-22s %14.4f %-5s (n=%d)\n", name, v, unit, samples)
}

// noteTail prints the p90 of xs and the highest percentile with at
// least minBeyond samples above it, scaled to unit, where the sample
// count allows.
func (r *report) noteTail(name, unit string, xs []float64, scale float64) {
	top, ok := highestPercentile(len(xs))
	if !ok || top < 900 {
		return
	}
	pms := []int{900}
	if top > 900 {
		pms = append(pms, top)
	}
	for _, pm := range pms {
		if v, err := percentile(xs, pm); err == nil {
			r.note(fmt.Sprintf("%s_p%g", name, float64(pm)/10), scale*v, unit, len(xs))
		}
	}
}

// result assembles the JSON result for the given metric list, failing
// when a metric is missing, unknown or badly named.
func (r *report) result(specs []metricSpec) (result, error) {
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metric)}
	res.Correct = r.failed == 0 && r.attempted > 0
	for _, s := range specs {
		if !validMetricName(s.Name) {
			return res, fmt.Errorf("invalid metric name %q", s.Name)
		}
		v, ok := r.values[s.Name]
		if !ok {
			return res, fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = metric{Value: v, Unit: s.Unit}
	}
	for name := range r.values {
		if _, ok := res.Metrics[name]; !ok {
			return res, fmt.Errorf("metric %s is not in the metric list", name)
		}
	}
	return res, nil
}

// workload is one named benchmark workload.
type workload struct {
	Name string
	// Run measures the end-to-end metrics (cfg.tr is nil).
	Run func(cfg config, r *report) error
	// Trace measures the per-layer metrics (cfg.tr records spans).
	Trace func(cfg config, r *report) error
}

// workloads returns the benchmark's workloads in a fixed order.
func workloads() []workload {
	return []workload{
		{Name: "table12", Run: table12.run, Trace: table12.trace},
		{Name: "sparse12", Run: sparse12.run, Trace: sparse12.trace},
		{Name: "drift", Run: runDrift, Trace: traceDrift},
		{Name: "serve", Run: runServe, Trace: traceServe},
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

// runMain runs one workload and returns the process exit code: 0 when
// every check passed, 1 when an output was wrong (the result is still
// printed), 2 when the run could not complete (nothing is printed).
func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: table12, sparse12, drift or serve")
	seed := fs.Int64("seed", defaultSeed, "seed the workload's inputs derive from")
	seconds := fs.Float64("seconds", 20, "how long the measured phase runs")
	traceFlag := fs.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	spansPath := fs.String("spans", "", "where a traced run writes its spans (default .bench_build/spans/<workload>-<seed>.json)")
	record := fs.String("record", "", "also append the result, tagged with workload and seed, to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || *traceFlag < 0 || *traceFlag > 1 {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var w *workload
	for _, c := range workloads() {
		if c.Name == *name {
			w = &c
			break
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	spans := *spansPath
	if spans == "" && *traceFlag == 1 {
		spans = filepath.Join(".bench_build", "spans", w.Name+"-"+strconv.FormatInt(*seed, 10)+".json")
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second))}
	if *traceFlag == 1 {
		cfg.tr = newTracer()
	}
	return execute(*w, cfg, spans, *record, stdout, stderr)
}

// execute runs workload w (traced when cfg.tr is set), prints its
// result, and returns runMain's exit code.
func execute(w workload, cfg config, spans, recordPath string, stdout, stderr io.Writer) int {
	r := newReport(stdout, stderr)
	run, specs, trace := w.Run, endToEnd, 0
	if cfg.tr != nil {
		run, specs, trace = w.Trace, perLayer, 1
		zeroAll(r, perLayer)
	}
	if err := run(cfg, r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 2
	}
	if cfg.tr != nil {
		if err := cfg.tr.write(spans); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	res, err := r.result(specs)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.Name, err)
		return 2
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	if recordPath != "" {
		if err := appendRecord(recordPath, w.Name, cfg.seed, trace, res); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// zeroAll presets every metric of specs to 0, the value a layer the
// workload does not exercise reports.
func zeroAll(r *report, specs []metricSpec) {
	for _, s := range specs {
		r.set(s.Name, 0)
	}
}

// record is one line of a --record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path, workload string, seed int64, trace int, res result) error {
	b, err := json.Marshal(record{Workload: workload, Seed: seed, Trace: trace, Result: res})
	if err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("recording result: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("recording result: %w", err)
	}
	return nil
}

// setupRuns is how many times a workload with a repeatable set-up sets
// up per run; setup_s is the median.
const setupRuns = 3

// repeatSetup builds a workload's state setupRuns times, discarding all
// but the last build, and returns it with the median calibrated build
// time in seconds.
func repeatSetup[T any](cal *calibrator, build func() (T, error), discard func(T) error) (T, float64, error) {
	var v T
	var times []float64
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := discard(v); err != nil {
				return v, 0, err
			}
		}
		var err error
		d := cal.time(func() { v, err = build() })
		if err != nil {
			return v, 0, err
		}
		times = append(times, d/float64(time.Second))
	}
	return v, median(times), nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
