package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"sfcacd/internal/geom"
)

func TestSampleGroupsDeterministic(t *testing.T) {
	p := table12.params(7)
	p.Particles, p.Order = 500, 6
	sample := func(seed uint64) [][]geom.Point {
		q := p
		q.Seed = seed
		var out [][]geom.Point
		for g, r := range groupRands(q) {
			pts, err := sampleGroup(q, g, r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, pts)
		}
		return out
	}
	a, b, c := sample(7), sample(7), sample(8)
	if len(a) != 9 {
		t.Fatalf("%d groups, want 9", len(a))
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different particle sets")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave identical particle sets")
	}
	if reflect.DeepEqual(a[0], a[1]) {
		t.Error("two trials of one distribution drew the same particles")
	}
}

func TestTrajectoryDeterministic(t *testing.T) {
	a, err := newTrajectory(7, 400, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := newTrajectory(7, 400, 6, 50)
	c, _ := newTrajectory(8, 400, 6, 50)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave different trajectories")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave identical trajectories")
	}
}

func TestTrajectoryPlayback(t *testing.T) {
	tr, err := newTrajectory(3, 400, 6, 50)
	if err != nil {
		t.Fatal(err)
	}
	side := geom.Side(6)
	cfg := append([]geom.Point(nil), tr.start...)
	total := 0
	for k := 0; k < 2*len(tr.ticks); k++ {
		total += tr.step(k, cfg)
		seen := make(map[uint64]bool, len(cfg))
		for _, p := range cfg {
			if seen[geom.CellID(p, side)] {
				t.Fatalf("step %d put two particles in cell %v", k, p)
			}
			seen[geom.CellID(p, side)] = true
		}
	}
	if total == 0 {
		t.Fatal("the trajectory never moved a particle")
	}
	if !reflect.DeepEqual(cfg, tr.start) {
		t.Error("playing the trajectory forwards and back did not return to the start")
	}
}

func TestPlannerDeterministic(t *testing.T) {
	draw := func(seed int64, client int) []request {
		p := newPlanner(seed, client)
		out := make([]request, 200)
		for i := range out {
			out[i] = p.next()
		}
		return out
	}
	a := draw(7, 0)
	if !reflect.DeepEqual(a, draw(7, 0)) {
		t.Error("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, draw(8, 0)) {
		t.Error("different seeds gave identical request sequences")
	}
	if reflect.DeepEqual(a, draw(7, 1)) {
		t.Error("two clients got identical request sequences")
	}
	seeds := map[uint64]bool{}
	for b := 0; b < len(a); b += serveMissEvery {
		misses := 0
		for _, q := range a[b : b+serveMissEvery] {
			if q.hot < 0 {
				misses++
				if seeds[q.seed] {
					t.Errorf("fresh seed %d used twice", q.seed)
				}
				seeds[q.seed] = true
			} else if q.seed != hotSeed(7, q.hot) {
				t.Errorf("hot key %d has seed %d", q.hot, q.seed)
			}
		}
		if misses != 1 {
			t.Errorf("block at %d has %d misses, want 1", b, misses)
		}
	}
	for i := 0; i < serveHotKeys; i++ {
		if seeds[hotSeed(7, i)] {
			t.Errorf("a fresh seed collides with hot key %d", i)
		}
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n, pm int
		ok    bool
	}{
		{9, 0, false}, {19, 0, false}, {20, 500, true}, {99, 500, true},
		{100, 900, true}, {999, 900, true}, {1000, 990, true},
		{9999, 990, true}, {10000, 999, true},
	} {
		pm, ok := highestPercentile(c.n)
		if pm != c.pm || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %d, %v; want %d, %v", c.n, pm, ok, c.pm, c.ok)
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100 down to 1
	}
	if v, err := percentile(xs, 900); err != nil || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs, 990); err == nil {
		t.Error("p99 of 100 samples should be refused: only 1 sample lies above it")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// Values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
	} {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil || [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, %v; want %v", c.xs, q1, q2, q3, err, c.want)
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample should fail")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100, CPUStart: 0, CPUEnd: 150},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30, CPUStart: 0, CPUEnd: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50, CPUStart: 0, CPUEnd: 30},
		{ID: 3, Parent: 0, Name: "a", Start: 90, End: 120, CPUStart: 0, CPUEnd: 10},
		{ID: 4, Parent: 2, Name: "c", Start: 25, End: 35, CPUStart: 0, CPUEnd: 5},
	}
	self := selfTimes(spans)
	// Root: children cover [10,50] and [90,100] once each.
	want := []time.Duration{50, 20, 20, 30, 10}
	for i, w := range want {
		if self[i].Wall != w {
			t.Errorf("span %d self wall = %d, want %d", i, self[i].Wall, w)
		}
	}
	if self[0].CPU != 70 || self[2].CPU != 25 {
		t.Errorf("self CPU = %d, %d; want 70, 25", self[0].CPU, self[2].CPU)
	}
	tot := layerTotals(spans)
	if tot["a"].Wall != 50 || tot["c"].Wall != 10 {
		t.Errorf("layer totals a=%d c=%d, want 50 and 10", tot["a"].Wall, tot["c"].Wall)
	}
	if u := unattributed(spans); u != 0.5 {
		t.Errorf("unattributed = %v, want 0.5", u)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	root := tr.begin("root")
	tr.timed("child", func() { tr.timed("grandchild", func() {}) })
	tr.end(root)
	tr.timed("second", func() {})
	parents := []int{-1, 0, 1, -1}
	for i, s := range tr.spans {
		if s.Parent != parents[i] {
			t.Errorf("span %s parent %d, want %d", s.Name, s.Parent, parents[i])
		}
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	var none *tracer
	none.timed("ignored", func() {})
}

func TestMetricNames(t *testing.T) {
	for _, good := range []string{"setup_s", "commmat.build_ffi_ms", "a-1", "9lives"} {
		if !validMetricName(good) {
			t.Errorf("%q rejected", good)
		}
	}
	for _, bad := range []string{"", "has space", "-lead", ".lead", "ünits", "a/b", strings.Repeat("x", 65)} {
		if validMetricName(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !validMetricName(s.Name) {
			t.Errorf("metric name %q is invalid", s.Name)
		}
		if seen[s.Name] {
			t.Errorf("metric %q listed twice", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		benchFile
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	var listed []string
	for _, w := range b.Workloads {
		listed = append(listed, w.Name)
	}
	if !reflect.DeepEqual(names, listed) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", listed, names)
	}
	same := func(kind string, specs []metricSpec, listed []benchMetric) {
		if len(specs) != len(listed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program reports %d", kind, len(listed), len(specs))
			return
		}
		for i, s := range specs {
			if listed[i].Name != s.Name || listed[i].Unit != s.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], program %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, s.Name, s.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, b.EndToEnd)
	same("per_layer", perLayer, b.PerLayer)
}

// TestOutputMismatchFailsRun runs the table12 workload against a wrong
// committed digest and checks that the run reports the failure and
// exits nonzero.
func TestOutputMismatchFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two table12 sweeps")
	}
	bad := table12
	bad.digest = strings.Repeat("0", 64)
	w := workload{Name: "table12", Run: bad.run, Trace: bad.trace}
	var stdout, stderr bytes.Buffer
	code := execute(w, config{seed: defaultSeed, seconds: time.Millisecond}, "", "", &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code %d, want 1; stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || res.Attempted < 2 {
		t.Errorf("result %+v, want correct=false with one failed operation", res)
	}

	good := workload{Name: "table12", Run: table12.run, Trace: table12.trace}
	stdout.Reset()
	if code := execute(good, config{seed: defaultSeed, seconds: time.Millisecond}, "", "", &stdout, &stderr); code != 0 {
		t.Fatalf("exit code %d with the committed digest, want 0; stderr:\n%s", code, stderr.String())
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := benchMetric{Name: "op_ms_p50", Better: "lower", Bound: 0.1}
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		m      benchMetric
		pv, cv []float64
		want   string
	}{
		{"faster", lower, parent, scale(parent, 0.8), verdictImproved},
		{"slower", lower, parent, scale(parent, 1.3), verdictRegressed},
		{"same", lower, parent, parent, verdictWithin},
		{"slightly slower", lower, parent, scale(parent, 1.05), verdictWithin},
		{"noisy parent", lower, []float64{50, 150, 60, 140, 100, 70, 130, 90, 110, 100}, scale(parent, 1.05), verdictUnresolved},
		{"higher is better", benchMetric{Name: "ops_per_s", Better: "higher", Bound: 0.1}, parent, scale(parent, 0.8), verdictRegressed},
		{"unbounded no change", benchMetric{Name: "x", Better: "lower"}, parent, parent, verdictUnresolved},
		{"unbounded slower", benchMetric{Name: "x", Better: "lower"}, parent, scale(parent, 1.5), verdictRegressed},
	} {
		if got := compareMetric("w", c.m, c.pv, c.cv).verdict; got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
