package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sfcacd/internal/experiments"
)

// TestExpandBatch pins the cell ordering contract: experiment-major,
// sweep fields in sorted name order, the last field varying fastest.
func TestExpandBatch(t *testing.T) {
	cells, err := expandBatch(BatchRequest{
		Experiments: []string{"table12", "fig6"},
		Params:      json.RawMessage(`{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1}`),
		Sweep: map[string][]json.RawMessage{
			"Seed":   {json.RawMessage(`1`), json.RawMessage(`2`)},
			"Radius": {json.RawMessage(`1`), json.RawMessage(`2`)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("expanded %d cells, want 8", len(cells))
	}
	// Sorted fields: Radius before Seed; Seed varies fastest.
	wantOrder := []struct {
		experiment string
		radius     int
		seed       uint64
	}{
		{"table12", 1, 1}, {"table12", 1, 2}, {"table12", 2, 1}, {"table12", 2, 2},
		{"fig6", 1, 1}, {"fig6", 1, 2}, {"fig6", 2, 1}, {"fig6", 2, 2},
	}
	for i, want := range wantOrder {
		c := cells[i]
		if c.experiment != want.experiment || c.params.Radius != want.radius || c.params.Seed != want.seed {
			t.Errorf("cell %d = %s radius=%d seed=%d, want %s radius=%d seed=%d",
				i, c.experiment, c.params.Radius, c.params.Seed, want.experiment, want.radius, want.seed)
		}
		if c.params.Particles != 400 {
			t.Errorf("cell %d lost the shared params override", i)
		}
	}
}

// TestExpandBatchResolvesIgnoredKnobs sweeps radius over the knobs its
// runner ignores: every cell must come out with them cleared, as
// mergeParams clears them for a single request.
func TestExpandBatchResolvesIgnoredKnobs(t *testing.T) {
	cells, err := expandBatch(BatchRequest{
		Experiments: []string{"radius"},
		Params:      json.RawMessage(`{"Particles":400,"Order":5,"Distribution":"normal"}`),
		Sweep:       map[string][]json.RawMessage{"Radius": {json.RawMessage("1"), json.RawMessage("3")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cells {
		if c.params.Radius != 0 || c.params.Distribution != "" || c.params.Particles != 400 {
			t.Errorf("cell %d params %+v, want Radius 0 and no Distribution over 400 particles", i, c.params)
		}
	}
}

func TestExpandBatchErrors(t *testing.T) {
	cases := []struct {
		name string
		req  BatchRequest
		want string
	}{
		{"no experiments", BatchRequest{}, "experiments list is empty"},
		{"unknown experiment", BatchRequest{Experiments: []string{"nonesuch"}}, "unknown experiment"},
		{"empty sweep field", BatchRequest{
			Experiments: []string{"table12"},
			Sweep:       map[string][]json.RawMessage{"Seed": {}},
		}, "has no values"},
		{"unknown sweep field", BatchRequest{
			Experiments: []string{"table12"},
			Sweep:       map[string][]json.RawMessage{"Sead": {json.RawMessage(`1`)}},
		}, "bad sweep value"},
		{"invalid cell", BatchRequest{
			Experiments: []string{"table12"},
			Sweep:       map[string][]json.RawMessage{"Trials": {json.RawMessage(`-1`)}},
		}, "cell 0"},
		{"too many cells", BatchRequest{
			Experiments: []string{"table12"},
			Sweep: map[string][]json.RawMessage{
				"Seed": make([]json.RawMessage, maxBatchCells+1),
			},
		}, "exceed"},
	}
	for i := range cases[5].req.Sweep["Seed"] {
		cases[5].req.Sweep["Seed"][i] = json.RawMessage(`1`)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := expandBatch(tc.req)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestBatchSSEStreamsIncrementally proves completions stream before
// the batch finishes: cell seeds 1 and 2 run concurrently, seed 2 is
// gated until the client has read seed 1's event off the wire.
func TestBatchSSEStreamsIncrementally(t *testing.T) {
	s := New(Options{Workers: 2})
	gate := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		if p.Seed == 2 {
			select {
			case <-gate:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		return fakeOutput(p), nil
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	body := `{"experiments":["table12"],
		"params":{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1},
		"sweep":{"Seed":[1,2]},"workers":2}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}

	// readEvent consumes one "event:"/"data:" frame.
	sc := bufio.NewScanner(resp.Body)
	readEvent := func() (string, []byte) {
		t.Helper()
		var name string
		var data []byte
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				data = []byte(strings.TrimPrefix(line, "data: "))
			case line == "" && name != "":
				return name, data
			}
		}
		t.Fatalf("stream ended early: %v", sc.Err())
		return "", nil
	}

	// The first event arrives while cell seed=2 is still gated — that
	// is the incrementality proof.
	name, data := readEvent()
	if name != "cell" {
		t.Fatalf("first event %q, want cell", name)
	}
	var first CellEvent
	if err := json.Unmarshal(data, &first); err != nil {
		t.Fatal(err)
	}
	if first.Cell != 0 || first.Error != "" {
		t.Errorf("first event = %+v, want cell 0 without error", first)
	}
	close(gate)

	name, data = readEvent()
	var second CellEvent
	if name != "cell" || json.Unmarshal(data, &second) != nil || second.Cell != 1 {
		t.Fatalf("second event %q %s, want cell 1", name, data)
	}
	name, data = readEvent()
	if name != "done" {
		t.Fatalf("third event %q, want done", name)
	}
	var sum BatchSummary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 2 || sum.Errors != 0 || sum.Cache["miss"] != 2 {
		t.Errorf("summary = %+v, want 2 miss cells", sum)
	}
}

// TestBatchNDJSON pins the Accept-negotiated line-delimited framing
// and that per-cell failures surface as error events, not stream
// aborts.
func TestBatchNDJSON(t *testing.T) {
	s := New(Options{Workers: 1})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		if p.Seed == 2 {
			return nil, context.DeadlineExceeded
		}
		return fakeOutput(p), nil
	}
	h := NewHandler(s)

	req := newRequest(t, "/v1/batch", `{"experiments":["table12"],
		"params":{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1},
		"sweep":{"Seed":[1,2]},"workers":1}`)
	req.Header.Set("Accept", "application/x-ndjson")
	rec := doRequest(h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("streamed %d lines, want 3: %q", len(lines), lines)
	}
	var ev0, ev1 CellEvent
	if err := json.Unmarshal([]byte(lines[0]), &ev0); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &ev1); err != nil {
		t.Fatal(err)
	}
	if ev0.Type != "cell" || ev0.Error != "" || ev0.Cache != "miss" {
		t.Errorf("cell 0 = %+v, want clean miss", ev0)
	}
	if ev1.Type != "cell" || ev1.Error == "" || ev1.Cache != "error" {
		t.Errorf("cell 1 = %+v, want an error event", ev1)
	}
	var sum BatchSummary
	if err := json.Unmarshal([]byte(lines[2]), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Type != "done" || sum.Cells != 2 || sum.Errors != 1 {
		t.Errorf("summary = %+v, want 2 cells 1 error", sum)
	}
}

// TestBatchBadRequest pins that expansion problems fail the whole
// batch as a 400 before any streaming starts.
func TestBatchBadRequest(t *testing.T) {
	h := NewHandler(New(Options{Workers: 1}))
	rec := postExperiment(t, h, "/v1/batch", `{"experiments":[]}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", rec.Code)
	}
	rec = postExperiment(t, h, "/v1/batch", `{"experiments":["table12"],"nope":1}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown field status %d, want 400", rec.Code)
	}
	// A cell is checked by its experiment too: threed's 3D near field.
	rec = postExperiment(t, h, "/v1/batch", `{"experiments":["threed"],"params":{"Radius":65}}`)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized threed cell status %d, want 400", rec.Code)
	}
	// So are the radii radius sweeps and the sizes nsweep derives.
	for _, body := range []string{
		`{"experiments":["radius"],"params":{"Particles":1048576,"Order":10,"ProcOrder":3,"Trials":1}}`,
		`{"experiments":["nsweep"],"params":{"Particles":4,"Order":5,"ProcOrder":1,"Trials":1}}`,
	} {
		rec = postExperiment(t, h, "/v1/batch", body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", body, rec.Code)
		}
	}
}
