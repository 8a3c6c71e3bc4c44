package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
	"sfcacd/internal/resultcache"
)

// tinyBody overrides the scaled preset down to a millisecond-scale
// configuration; HTTP tests post it so the suite stays fast.
const tinyBody = `{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1,"Seed":11}`

func postExperiment(t *testing.T, h http.Handler, url, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestHandlerMissThenHitByteIdentical(t *testing.T) {
	h := NewHandler(New(Options{Workers: 2}))
	first := postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	if first.Code != http.StatusOK {
		t.Fatalf("first POST status %d: %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	second := postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	if second.Code != http.StatusOK {
		t.Fatalf("second POST status %d: %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("hit body is not byte-identical to the miss body")
	}

	var env resultcache.Envelope
	if err := json.Unmarshal(first.Body.Bytes(), &env); err != nil {
		t.Fatalf("response is not an Envelope: %v", err)
	}
	if env.Experiment != "table12" || env.Key == (resultcache.Key{}) || len(env.Result) == 0 || len(env.Manifest) == 0 {
		t.Errorf("incomplete envelope: experiment=%q key=%q result=%dB manifest=%dB",
			env.Experiment, env.Key, len(env.Result), len(env.Manifest))
	}
	var p experiments.Params
	if err := json.Unmarshal(env.Params, &p); err != nil {
		t.Fatal(err)
	}
	if p.Particles != 400 || p.Order != 5 {
		t.Errorf("effective params %+v did not apply the posted overrides", p)
	}
}

// radiusBodies are three radius requests that differ only in knobs the
// runner ignores: it sweeps fixed radii over a uniform sample.
var radiusBodies = []string{
	`{"Particles":1000,"Order":6,"ProcOrder":3,"Trials":1,"Radius":1}`,
	`{"Particles":1000,"Order":6,"ProcOrder":3,"Trials":1,"Radius":3}`,
	`{"Particles":1000,"Order":6,"ProcOrder":3,"Trials":1,"Radius":1,"Distribution":"normal"}`,
}

// TestHandlerRadiusIgnoredKnobsShareOneKey posts the three bodies: the
// first computes, the other two hit its entry under the same key, and
// the envelope carries the cleared knobs.
func TestHandlerRadiusIgnoredKnobsShareOneKey(t *testing.T) {
	h := NewHandler(New(Options{Workers: 2}))
	computations := obs.GetCounter("serve.computations")
	before := computations.Value()
	var key resultcache.Key
	for i, body := range radiusBodies {
		rec := postExperiment(t, h, "/v1/experiments/radius", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body)
		}
		want := "hit"
		if i == 0 {
			want = "miss"
		}
		if got := rec.Header().Get("X-Cache"); got != want {
			t.Errorf("body %d: X-Cache = %q, want %q", i, got, want)
		}
		var env resultcache.Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			key = env.Key
		} else if env.Key != key {
			t.Errorf("body %d: key %s, want the first body's %s", i, env.Key, key)
		}
		var p experiments.Params
		if err := json.Unmarshal(env.Params, &p); err != nil {
			t.Fatal(err)
		}
		if p.Radius != 0 || p.Distribution != "" || p.Particles != 1000 {
			t.Errorf("body %d: envelope params %+v, want Radius 0, no Distribution, 1000 particles", i, p)
		}
	}
	if n := computations.Value() - before; n != 1 {
		t.Errorf("serve.computations rose by %d, want 1", n)
	}
}

// TestHandlerIgnoredDistributionSharesOneKey posts every experiment
// with and then without a Distribution. Only dynamic and dynamicincr
// sample the distribution they are given, so each of them computes
// twice under two keys; every other experiment computes once and
// answers the second body from the first's entry under its key.
func TestHandlerIgnoredDistributionSharesOneKey(t *testing.T) {
	h := NewHandler(New(Options{Workers: 2}))
	computations := obs.GetCounter("serve.computations")
	bodies := []string{
		`{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1,"Distribution":"normal"}`,
		`{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1}`,
	}
	for _, name := range experiments.Names() {
		reads := name == "dynamic" || name == "dynamicincr"
		before := computations.Value()
		var keys []resultcache.Key
		for i, body := range bodies {
			rec := postExperiment(t, h, "/v1/experiments/"+name, body)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s body %d: status %d: %s", name, i, rec.Code, rec.Body)
			}
			want := "miss"
			if i == 1 && !reads {
				want = "hit"
			}
			if got := rec.Header().Get("X-Cache"); got != want {
				t.Errorf("%s body %d: X-Cache = %q, want %q", name, i, got, want)
			}
			var env resultcache.Envelope
			if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
				t.Fatal(err)
			}
			keys = append(keys, env.Key)
		}
		if same := keys[0] == keys[1]; same == reads {
			t.Errorf("%s: keys %s and %s, want them equal: %v", name, keys[0], keys[1], !reads)
		}
		want := uint64(1)
		if reads {
			want = 2
		}
		if n := computations.Value() - before; n != want {
			t.Errorf("%s: serve.computations rose by %d, want %d", name, n, want)
		}
	}
}

// TestHandlerMixedOrders posts table12 at order 8 and then at order 12
// to one handler (a pooled index once crashed the second request).
// Both must answer 200.
func TestHandlerMixedOrders(t *testing.T) {
	h := NewHandler(New(Options{Workers: 2}))
	for _, order := range []int{8, 12} {
		body := fmt.Sprintf(`{"Particles":15625,"Order":%d,"ProcOrder":6,"Radius":1,"Trials":1,"Seed":1}`, order)
		if rec := postExperiment(t, h, "/v1/experiments/table12", body); rec.Code != http.StatusOK {
			t.Fatalf("order %d: status %d: %s", order, rec.Code, rec.Body)
		}
	}
}

func TestHandlerPresetMerge(t *testing.T) {
	s := New(Options{Workers: 1})
	var got experiments.Params
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		got = p
		return fakeOutput(p), nil
	}
	h := NewHandler(s)

	// Unset Workers is defaulted by compute (machine split across the
	// server's slots); with Workers:1 slots that is GOMAXPROCS.
	defaultedWorkers := runtime.GOMAXPROCS(0)

	// Empty body: the scaled preset runs as-is.
	rec := postExperiment(t, h, "/v1/experiments/table12", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("empty body status %d: %s", rec.Code, rec.Body)
	}
	want := experiments.Table12Paper.Scale(defaultScaleSteps)
	want.Workers = defaultedWorkers
	if got != want {
		t.Errorf("empty body ran %+v, want scaled preset %+v", got, want)
	}

	// Partial body over ?preset=paper: only the posted field changes.
	rec = postExperiment(t, h, "/v1/experiments/table12?preset=paper", `{"Trials":1}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("preset=paper status %d: %s", rec.Code, rec.Body)
	}
	want = experiments.Table12Paper
	want.Trials = 1
	want.Workers = defaultedWorkers
	if got != want {
		t.Errorf("preset=paper with override ran %+v, want %+v", got, want)
	}
}

func TestHandlerErrors(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	cases := []struct {
		name, url, body string
		wantStatus      int
		wantInError     string
	}{
		{"unknown experiment", "/v1/experiments/nonesuch", "", http.StatusNotFound, "unknown experiment"},
		{"unknown preset", "/v1/experiments/table12?preset=huge", "", http.StatusBadRequest, "unknown preset"},
		{"unknown field", "/v1/experiments/table12", `{"Particle":1}`, http.StatusBadRequest, "bad params body"},
		{"malformed json", "/v1/experiments/table12", `{"Particles":`, http.StatusBadRequest, "bad params body"},
		{"invalid params", "/v1/experiments/table12", `{"Trials":-1}`, http.StatusBadRequest, "invalid parameters"},
		{"proc order too large", "/v1/experiments/table12", `{"ProcOrder":16}`, http.StatusBadRequest, "invalid parameters"},
		{"removed engine knob", "/v1/experiments/table12", `{"NFIEngine":"keys"}`, http.StatusBadRequest, "bad params body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := postExperiment(t, h, tc.url, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status %d, want %d (body %s)", rec.Code, tc.wantStatus, rec.Body)
			}
			var eb errorBody
			if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			if !strings.Contains(eb.Error, tc.wantInError) {
				t.Errorf("error %q does not mention %q", eb.Error, tc.wantInError)
			}
		})
	}
}

// TestHandlerRejectsOversizedNearField posts a near-field radius whose
// pair plan would exhaust the daemon's memory: validation answers 400
// and the computation never runs.
func TestHandlerRejectsOversizedNearField(t *testing.T) {
	s := New(Options{Workers: 1})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		t.Errorf("ran %s with %+v", spec.Name, p)
		return fakeOutput(p), nil
	}
	rec := postExperiment(t, NewHandler(s), "/v1/experiments/meshtorus",
		`{"Particles":65536,"Order":8,"ProcOrder":3,"Radius":64,"Trials":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want %d (body %s)", rec.Code, http.StatusBadRequest, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "near-field events") {
		t.Errorf("error body %s does not name the near-field bound", rec.Body)
	}
}

// TestHandlerRejectsOversizedThreeD posts a radius whose 3D near field
// would keep the daemon's cores busy for minutes: the threed entry
// derives 20,000 particles on a 64^3 cube from the scaled preset, which
// Params.Validate does not see, and the entry's own check answers 400
// naming the bound before the computation runs.
func TestHandlerRejectsOversizedThreeD(t *testing.T) {
	s := New(Options{Workers: 1})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		t.Errorf("ran %s with %+v", spec.Name, p)
		return fakeOutput(p), nil
	}
	rec := postExperiment(t, NewHandler(s), "/v1/experiments/threed", `{"Radius":65}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want %d (body %s)", rec.Code, http.StatusBadRequest, rec.Body)
	}
	if !strings.Contains(rec.Body.String(), "3D near-field events") {
		t.Errorf("error body %s does not name the 3D near-field bound", rec.Body)
	}
}

// TestHandlerRejectsDerivedSweepParams posts requests that
// Params.Validate accepts but whose derived sweeps are out of bounds:
// radius sweeps radius 8 over 2^20 particles, past the 2D near-field
// bound, and nsweep's Particles/8 of 4 particles is 0. Each entry's
// own check answers 400 naming the bound before the computation runs.
func TestHandlerRejectsDerivedSweepParams(t *testing.T) {
	s := New(Options{Workers: 1})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		t.Errorf("ran %s with %+v", spec.Name, p)
		return fakeOutput(p), nil
	}
	h := NewHandler(s)
	for _, tc := range []struct{ path, body, bound string }{
		{"/v1/experiments/radius", `{"Particles":1048576,"Order":10,"ProcOrder":3,"Trials":1}`, "268435456 2D near-field events"},
		{"/v1/experiments/nsweep", `{"Particles":4,"Order":5,"ProcOrder":1,"Trials":1}`, "at least 1 particle"},
	} {
		rec := postExperiment(t, h, tc.path, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s %s: status %d, want %d (body %s)", tc.path, tc.body, rec.Code, http.StatusBadRequest, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), tc.bound) {
			t.Errorf("%s: error body %s does not name the bound", tc.path, rec.Body)
		}
	}
}

// TestHandlerRejectsDaemonKillingSizes posts a processor order and a
// trial count whose allocations would kill the daemon with a fatal
// out-of-memory error, which no recover can catch: validation answers
// 400 naming the bound, and the computation never runs.
func TestHandlerRejectsDaemonKillingSizes(t *testing.T) {
	s := New(Options{Workers: 1})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		t.Errorf("ran %s with %+v", spec.Name, p)
		return fakeOutput(p), nil
	}
	h := NewHandler(s)
	for _, tc := range []struct{ body, bound string }{
		{`{"ProcOrder":15}`, "exceeds 10"},
		{`{"Trials":1000000000}`, "exceed 1024"},
	} {
		rec := postExperiment(t, h, "/v1/experiments/table12", tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want %d (body %s)", tc.body, rec.Code, http.StatusBadRequest, rec.Body)
		}
		if !strings.Contains(rec.Body.String(), tc.bound) {
			t.Errorf("%s: error body %s does not name the bound", tc.body, rec.Body)
		}
	}
}

func TestHandlerOverload(t *testing.T) {
	s := New(Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		select {
		case <-release:
			return fakeOutput(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	h := NewHandler(s)

	var wg sync.WaitGroup
	for seed := 1; seed <= 2; seed++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := `{"Seed":` + string(rune('0'+seed)) + `}`
			if rec := postExperiment(t, h, "/v1/experiments/table12", body); rec.Code != http.StatusOK {
				t.Errorf("admitted request seed %d: status %d", seed, rec.Code)
			}
		}(seed)
	}
	waitFor(t, "both computations admitted", func() bool { return s.queued.Load() == 2 })

	// Seed the compute history: 2 completions totaling 4s, so the mean
	// is 2s. The rejected request sees a backlog of 2 on 1 worker — two
	// waves of 2s each — pinning Retry-After at exactly 4.
	s.computeNs.Store(int64(4 * time.Second))
	s.computeCount.Store(2)

	rec := postExperiment(t, h, "/v1/experiments/table12", `{"Seed":3}`)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("overloaded status %d, want 503 (body %s)", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Retry-After"); got != "4" {
		t.Errorf("503 Retry-After = %q, want 4 (2 backlogged waves x 2s mean compute)", got)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatal(err)
	}
	if eb.QueueDepth != 2 {
		t.Errorf("queue_depth = %d, want 2", eb.QueueDepth)
	}
	close(release)
	wg.Wait()
}

// TestRetryAfterHint pins the overload-backoff estimate: backlogged
// waves times mean compute time, clamped to [1s, 60s], with a 1s
// default before any computation has completed.
func TestRetryAfterHint(t *testing.T) {
	s := New(Options{Workers: 4})
	if got := s.RetryAfterHint(10); got != time.Second {
		t.Errorf("no history: hint %v, want 1s default", got)
	}
	// Mean compute 3s. depth 10 on 4 workers = 3 waves -> 9s.
	s.computeNs.Store(int64(6 * time.Second))
	s.computeCount.Store(2)
	cases := []struct {
		depth int
		want  time.Duration
	}{
		{0, time.Second},         // empty backlog: probe floor
		{1, 3 * time.Second},     // one wave
		{4, 3 * time.Second},     // still one wave
		{5, 6 * time.Second},     // spills into a second wave
		{10, 9 * time.Second},    // ceil(10/4) = 3 waves
		{1000, 60 * time.Second}, // clamped to the ceiling
	}
	for _, tc := range cases {
		if got := s.RetryAfterHint(tc.depth); got != tc.want {
			t.Errorf("depth %d: hint %v, want %v", tc.depth, got, tc.want)
		}
	}
	// Sub-second means floor at 1s.
	s.computeNs.Store(int64(10 * time.Millisecond))
	s.computeCount.Store(1)
	if got := s.RetryAfterHint(2); got != time.Second {
		t.Errorf("tiny mean: hint %v, want 1s floor", got)
	}
}

// TestWriteRateLimitedCeiling pins the 429 Retry-After arithmetic: the
// deficit rounds up to whole seconds without overshooting exact-second
// values, and never drops below 1.
func TestWriteRateLimitedCeiling(t *testing.T) {
	cases := []struct {
		retry time.Duration
		want  string
	}{
		{0, "1"},
		{200 * time.Millisecond, "1"},
		{time.Second, "1"}, // exactly 1s must not become 2
		{1500 * time.Millisecond, "2"},
		{2 * time.Second, "2"}, // exactly 2s must not become 3
		{2*time.Second + time.Millisecond, "3"},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		writeRateLimited(rec, tc.retry)
		if rec.Code != http.StatusTooManyRequests {
			t.Fatalf("retry %v: status %d, want 429", tc.retry, rec.Code)
		}
		if got := rec.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("retry %v: Retry-After = %q, want %q", tc.retry, got, tc.want)
		}
	}
}

func TestHandlerList(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	req := httptest.NewRequest(http.MethodGet, "/v1/experiments", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Experiments []listEntry `json:"experiments"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Experiments) != len(experiments.Registry()) {
		t.Fatalf("listed %d experiments, registry has %d", len(body.Experiments), len(experiments.Registry()))
	}
	first := body.Experiments[0]
	if first.Name != "table12" || first.Description == "" {
		t.Errorf("first entry = %+v", first)
	}
	if first.ScaledParams != first.PaperParams.Scale(defaultScaleSteps) {
		t.Error("scaled_params is not the default-scaled paper preset")
	}
}

func TestHandlerHealthAndMetrics(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("/healthz = %d %q", rec.Code, rec.Body)
	}

	// A request first so the snapshot has serve counters.
	postExperiment(t, h, "/v1/experiments/table12", tinyBody)

	// Default /metrics is the Prometheus text exposition.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("/metrics Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "serve_requests_total") {
		t.Error("/metrics exposition missing serve_requests_total")
	}

	// JSON stays available by content negotiation and at /metrics.json.
	for _, mk := range []func() *http.Request{
		func() *http.Request {
			req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
			req.Header.Set("Accept", "application/json")
			return req
		},
		func() *http.Request { return httptest.NewRequest(http.MethodGet, "/metrics.json", nil) },
	} {
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, mk())
		if rec.Code != http.StatusOK {
			t.Fatalf("JSON metrics status %d", rec.Code)
		}
		var snap struct {
			Counters map[string]uint64 `json:"counters"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("JSON metrics response is not a snapshot: %v", err)
		}
		if snap.Counters["serve.requests"] == 0 {
			t.Error("JSON metrics snapshot missing serve.requests")
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", rec.Code)
	}
}

// TestHandlerComputePanic posts two concurrent identical requests whose
// computation panics: both get a 500 instead of the process dying, the
// panic counts once in serve.panics, nothing is cached (a third request
// computes again), and the daemon still answers /healthz. A panic on a
// sweep worker goroutine gets the same treatment, and so does one on a
// panics.Parallel worker.
func TestHandlerComputePanic(t *testing.T) {
	s := New(Options{Workers: 2})
	var runs atomic.Int64
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		<-release
		panic("boom")
	}
	h := NewHandler(s)
	p, err := mergeParams("table12", "", []byte(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	key := keyOf("table12", p)
	panicsBefore := obs.GetCounter("serve.panics").Value()

	recs := make([]*httptest.ResponseRecorder, 2)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs[i] = postExperiment(t, h, "/v1/experiments/table12", tinyBody)
		}()
		// The second request joins the first one's computation.
		waitFor(t, fmt.Sprintf("request %d to join the in-flight call", i), func() bool { return refsOf(s, key) == i+1 })
	}
	close(release)
	wg.Wait()
	for i, rec := range recs {
		if rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "boom") {
			t.Errorf("request %d: status %d %q, want 500 naming the panic", i, rec.Code, rec.Body)
		}
	}
	if got := obs.GetCounter("serve.panics").Value() - panicsBefore; got != 1 {
		t.Errorf("serve.panics delta = %d, want 1", got)
	}
	if refsOf(s, key) != -1 {
		t.Error("the failed call is still in flight")
	}

	if rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody); rec.Code != http.StatusInternalServerError {
		t.Errorf("third request: status %d %q, want 500", rec.Code, rec.Body)
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("runner executed %d times, want 2 (the error must not be cached)", got)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz after the panics = %d %q", rec.Code, rec.Body)
	}

	// A panic on a sweep worker goroutine reaches the same recover: the
	// sweep re-raises it on the compute goroutine that waits for it.
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		return nil, experiments.RunCells(ctx, 2, 4, func(cell int) error {
			if cell == 2 {
				panic("cell boom")
			}
			return nil
		})
	}
	panicsBefore = obs.GetCounter("serve.panics").Value()
	if rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "cell boom") {
		t.Errorf("sweep worker panic: status %d %q, want 500 naming the panic", rec.Code, rec.Body)
	}
	if got := obs.GetCounter("serve.panics").Value() - panicsBefore; got != 1 {
		t.Errorf("sweep worker panic: serve.panics delta = %d, want 1", got)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz after the sweep worker panic = %d %q", rec.Code, rec.Body)
	}

	// The pool under pricing, plan recording, anns, primitives and
	// model3d re-raises a worker's panic on the compute goroutine: here
	// the spawned worker panics while the caller's worker waits.
	spawned := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		panics.Parallel(2, 2, func(w, _ int) {
			if w == 0 {
				<-spawned
				return
			}
			close(spawned)
			panic("pool boom")
		})
		return nil, fmt.Errorf("the pool returned")
	}
	panicsBefore = obs.GetCounter("serve.panics").Value()
	if rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody); rec.Code != http.StatusInternalServerError || !strings.Contains(rec.Body.String(), "pool boom") {
		t.Errorf("pool worker panic: status %d %q, want 500 naming the panic", rec.Code, rec.Body)
	}
	if got := obs.GetCounter("serve.panics").Value() - panicsBefore; got != 1 {
		t.Errorf("pool worker panic: serve.panics delta = %d, want 1", got)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("/healthz after the pool worker panic = %d %q", rec.Code, rec.Body)
	}
}
