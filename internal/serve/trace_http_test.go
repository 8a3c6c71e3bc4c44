package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"sfcacd/internal/obs"
	"sfcacd/internal/obs/tracestore"
)

// keepAllStore retains every offered trace deterministically, so tests
// can fetch any request's trace back regardless of status or speed.
func keepAllStore() *tracestore.Store {
	return tracestore.New(tracestore.Options{Seed: 1, SampleProb: 1})
}

func get(h http.Handler, url string, hdr ...string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodGet, url, nil)
	for i := 0; i+1 < len(hdr); i += 2 {
		req.Header.Set(hdr[i], hdr[i+1])
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestReadyzFlipsOnDrain(t *testing.T) {
	s := New(Options{Workers: 1})
	h := NewHandler(s)
	if rec := get(h, "/readyz"); rec.Code != http.StatusOK {
		t.Fatalf("/readyz before drain = %d", rec.Code)
	}
	s.SetDraining()
	rec := get(h, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %d, want 503", rec.Code)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil || eb.Error != "draining" {
		t.Errorf("drain body = %q (%v)", rec.Body, err)
	}
}

func TestTraceIDHonoredAndGenerated(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1, Traces: keepAllStore()}))

	req := httptest.NewRequest(http.MethodGet, "/v1/experiments", nil)
	req.Header.Set("X-Trace-Id", "client-supplied-id_01")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Trace-Id"); got != "client-supplied-id_01" {
		t.Errorf("honored id = %q", got)
	}

	// No (or invalid) client id: the server mints a 32-hex one.
	for _, hdr := range []string{"", "bad id with spaces", strings.Repeat("x", 200)} {
		req = httptest.NewRequest(http.MethodGet, "/v1/experiments", nil)
		if hdr != "" {
			req.Header.Set("X-Trace-Id", hdr)
		}
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		id := rec.Header().Get("X-Trace-Id")
		if len(id) != 32 {
			t.Errorf("header %q: generated id %q is not 32 hex chars", hdr, id)
		}
	}

	// /debug/ endpoints are exempt: reading traces mints no traces.
	if rec := get(h, "/debug/traces"); rec.Header().Get("X-Trace-Id") != "" {
		t.Error("/debug/traces response carries a trace id")
	}
}

func TestTraceCaptureEndToEnd(t *testing.T) {
	st := keepAllStore()
	h := NewHandler(New(Options{Workers: 2, Traces: st}))

	rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST status %d: %s", rec.Code, rec.Body)
	}
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("response missing X-Trace-Id")
	}

	// The index lists the request, newest first.
	rec = get(h, "/debug/traces")
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces status %d", rec.Code)
	}
	var index struct {
		Traces []tracestore.IndexEntry `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &index); err != nil {
		t.Fatal(err)
	}
	if len(index.Traces) == 0 || index.Traces[0].ID != id {
		t.Fatalf("index = %+v, want newest entry %s", index.Traces, id)
	}
	if index.Traces[0].Status != http.StatusOK {
		t.Errorf("indexed status = %d", index.Traces[0].Status)
	}

	// The full tree carries the request's cache status, experiment,
	// and the phase spans of the computation it led.
	rec = get(h, "/debug/traces/"+id)
	if rec.Code != http.StatusOK {
		t.Fatalf("/debug/traces/%s status %d", id, rec.Code)
	}
	var snap obs.TraceSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if !snap.Complete || snap.Status != http.StatusOK {
		t.Errorf("trace complete/status = %v/%d", snap.Complete, snap.Status)
	}
	if snap.Attrs["cache"] != string(StatusMiss) {
		t.Errorf("cache attr = %q, want %q", snap.Attrs["cache"], StatusMiss)
	}
	if snap.Attrs["experiment"] != "table12" {
		t.Errorf("experiment attr = %q", snap.Attrs["experiment"])
	}
	// The serving phases open under their parents: the lookup and the
	// wait under the root, the queue wait beside the sweep under the
	// compute goroutine's span.
	if got, want := spanShape(snap.Spans, 3), "request(cache.lookup compute(queue.wait sweep) wait)"; got != want {
		t.Errorf("miss trace = %s, want %s; tree: %s", got, want, rec.Body)
	}
	sweep := findSpan(snap.Spans, "sweep")
	if sweep != nil && sweep.Attrs["cells"] == "" {
		t.Errorf("sweep span missing cells annotation: %+v", sweep.Attrs)
	}
	// Every phase of the sweep's cells opens under the sweep span the
	// computation's context handed down.
	if sweep == nil {
		t.Fatal("sweep span missing")
	}
	if got, want := spanShape(sweep.Children, 0), missSweepShape; got != want {
		t.Errorf("sweep children = %s, want %s", got, want)
	}

	// A second identical request is a cache hit with its own trace.
	rec = postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	hitID := rec.Header().Get("X-Trace-Id")
	if hitID == id {
		t.Fatal("two requests shared a trace id")
	}
	rec = get(h, "/debug/traces/"+hitID)
	if rec.Code != http.StatusOK {
		t.Fatalf("hit trace status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Attrs["cache"] != string(StatusHit) {
		t.Errorf("hit trace cache attr = %q", snap.Attrs["cache"])
	}
	if got, want := spanShape(snap.Spans, 0), "request(cache.lookup)"; got != want {
		t.Errorf("hit trace = %s, want %s", got, want)
	}

	// Unknown ids 404.
	if rec = get(h, "/debug/traces/nope"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace id status = %d, want 404", rec.Code)
	}
}

// missSweepShape is the phase tree under a table12 miss's sweep.
const missSweepShape = "accumulation.ffi(price.ffi) accumulation.nfi(price.nfi) keybuild keynav.plan ordering partitioning sampling"

// TestConcurrentTracedMissesIsolated: two traced misses computing at
// once, with different seeds, each hold exactly their own cells' phase
// call counts — no phase of one computation lands in the other's
// trace.
func TestConcurrentTracedMissesIsolated(t *testing.T) {
	st := keepAllStore()
	h := NewHandler(New(Options{Workers: 2, Traces: st}))
	bodies := []string{
		`{"Particles":400,"Order":5,"ProcOrder":2,"Trials":2,"Seed":21}`,
		`{"Particles":400,"Order":5,"ProcOrder":2,"Trials":2,"Seed":22}`,
	}
	ids := make([]string, len(bodies))
	var wg sync.WaitGroup
	for i, body := range bodies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := postExperiment(t, h, "/v1/experiments/table12", body)
			if rec.Code != http.StatusOK {
				t.Errorf("POST %s: status %d: %s", body, rec.Code, rec.Body)
			}
			ids[i] = rec.Header().Get("X-Trace-Id")
		}()
	}
	wg.Wait()
	// Two trials of three distributions: six sets, four curves each.
	const sets, cells = 6, 24
	want := map[string]uint64{
		"sampling": sets, "keybuild": sets, "keynav.plan": sets,
		"partitioning": cells, "ordering": cells,
		"accumulation.nfi": cells, "price.nfi": cells,
		"accumulation.ffi": cells, "price.ffi": cells,
	}
	for i, id := range ids {
		rec := get(h, "/debug/traces/"+id)
		var snap obs.TraceSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatalf("trace %d: %v", i, err)
		}
		if snap.Attrs["cache"] != string(StatusMiss) {
			t.Errorf("trace %d: cache = %q, want miss", i, snap.Attrs["cache"])
		}
		sweep := findSpan(snap.Spans, "sweep")
		if sweep == nil || sweep.Calls != 1 {
			t.Fatalf("trace %d: sweep = %+v, want one", i, sweep)
		}
		if got := spanShape(sweep.Children, 0); got != missSweepShape {
			t.Errorf("trace %d: sweep children = %s, want %s", i, got, missSweepShape)
		}
		for name, calls := range want {
			if p := findSpan(sweep.Children, name); p == nil || p.Calls != calls {
				t.Errorf("trace %d: %s = %+v, want %d calls", i, name, p, calls)
			}
		}
	}
}

// spanShape renders a span forest as "name(child child(...))" down to
// depth levels (0: all), children sorted by name, so a test pins every
// span's parent without depending on the order in which concurrent
// goroutines entered them.
func spanShape(spans []obs.PhaseSnapshot, depth int) string {
	parts := make([]string, len(spans))
	for i, sp := range spans {
		parts[i] = sp.Name
		if depth != 1 && len(sp.Children) > 0 {
			parts[i] += "(" + spanShape(sp.Children, depth-1) + ")"
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// findSpan walks a span forest for a phase name at any depth.
func findSpan(spans []obs.PhaseSnapshot, name string) *obs.PhaseSnapshot {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if p := findSpan(spans[i].Children, name); p != nil {
			return p
		}
	}
	return nil
}

// TestErrorTraceRecordsClass: a failed request's trace carries the
// error class the metrics count it under.
func TestErrorTraceRecordsClass(t *testing.T) {
	st := keepAllStore()
	h := NewHandler(New(Options{Workers: 1, Traces: st}))
	rec := postExperiment(t, h, "/v1/experiments/table12", `{"Trials":-1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	id := rec.Header().Get("X-Trace-Id")
	tr, ok := st.Get(id)
	if !ok {
		t.Fatal("400 trace not retained by a keep-all store")
	}
	attrs := tr.Attrs()
	if attrs["error_class"] != "invalid_params" {
		t.Errorf("error_class attr = %q", attrs["error_class"])
	}
}

func TestErrorResponsesCarryContentLength(t *testing.T) {
	s := New(Options{Workers: 1, Traces: keepAllStore()})
	h := NewHandler(s)
	urls := []struct {
		method, url, body string
		want              int
	}{
		{http.MethodPost, "/v1/experiments/nonesuch", "", http.StatusNotFound},
		{http.MethodPost, "/v1/experiments/table12", `{"Trials":-1}`, http.StatusBadRequest},
		{http.MethodGet, "/debug/traces/absent", "", http.StatusNotFound},
	}
	s.SetDraining()
	urls = append(urls, struct {
		method, url, body string
		want              int
	}{http.MethodGet, "/readyz", "", http.StatusServiceUnavailable})

	for _, tc := range urls {
		req := httptest.NewRequest(tc.method, tc.url, strings.NewReader(tc.body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%s %s = %d, want %d", tc.method, tc.url, rec.Code, tc.want)
			continue
		}
		cl := rec.Header().Get("Content-Length")
		if cl == "" {
			t.Errorf("%s %s: error response missing Content-Length", tc.method, tc.url)
			continue
		}
		if n, _ := strconv.Atoi(cl); n != rec.Body.Len() {
			t.Errorf("%s %s: Content-Length %s != body %d", tc.method, tc.url, cl, rec.Body.Len())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s %s: error Content-Type = %q", tc.method, tc.url, ct)
		}
	}
}

// TestRequestLatencyHistogramLabels: the per-request latency histogram
// appears per (cache, experiment) label pair and agrees with the
// request count.
func TestRequestLatencyHistogramLabels(t *testing.T) {
	st := keepAllStore()
	h := NewHandler(New(Options{Workers: 1, Traces: st}))
	postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	postExperiment(t, h, "/v1/experiments/table12", tinyBody)

	snap := obs.Default().Snapshot()
	missName := obs.LabeledName("serve.request_latency_ns", "cache", "miss", "experiment", "table12")
	hitName := obs.LabeledName("serve.request_latency_ns", "cache", "hit", "experiment", "table12")
	if hs, ok := snap.Histograms[missName]; !ok || hs.Count == 0 {
		t.Errorf("miss latency histogram absent or empty (%v)", ok)
	}
	if hs, ok := snap.Histograms[hitName]; !ok || hs.Count == 0 {
		t.Errorf("hit latency histogram absent or empty (%v)", ok)
	}

	// And the deadline 504 path feeds the timeout error class counter.
	s := New(Options{Workers: 1, ComputeTimeout: time.Nanosecond, Traces: keepAllStore()})
	slow := NewHandler(s)
	rec := postExperiment(t, slow, "/v1/experiments/table12", `{"Particles":4000,"Trials":2,"Seed":99}`)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline status = %d, want 504 (%s)", rec.Code, rec.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("504 body is not an errorBody: %v", err)
	}
	if eb.Timeout == "" {
		t.Error("504 body missing timeout field")
	}
	snap = obs.Default().Snapshot()
	if snap.Counters[obs.LabeledName("serve.errors", "class", "timeout")] == 0 {
		t.Error("timeout error class counter not incremented")
	}
}
