package fleet_test

// Integration tests: two real serve.Servers joined into a fleet over
// httptest listeners, exercising forward, peer fill, degradation, and
// the peer protocol end to end.

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/faultinject"
	"sfcacd/internal/fleet"
	"sfcacd/internal/obs"
	"sfcacd/internal/obs/tracestore"
	"sfcacd/internal/resultcache"
	"sfcacd/internal/serve"
)

// lateHandler lets an httptest.Server start before its handler exists
// (fleet URLs are only known after listening).
type lateHandler struct {
	mu sync.RWMutex
	h  http.Handler
}

func (l *lateHandler) set(h http.Handler) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.h = h
}

func (l *lateHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	l.mu.RLock()
	h := l.h
	l.mu.RUnlock()
	if h == nil {
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testNode is one fleet member under test.
type testNode struct {
	id     string
	server *serve.Server
	node   *fleet.Node
	ts     *httptest.Server
}

func (n *testNode) URL() string { return n.ts.URL }

// startFleet builds a two-node fleet "a" and "b". serveFaults and
// fleetFaults configure per-node injectors by node id (may be nil).
func startFleet(t *testing.T, serveFaults, fleetFaults map[string]*faultinject.Injector) (a, b *testNode) {
	t.Helper()
	nodes := make([]*testNode, 2)
	late := make([]*lateHandler, 2)
	for i, id := range []string{"a", "b"} {
		late[i] = &lateHandler{}
		nodes[i] = &testNode{id: id, ts: httptest.NewServer(late[i])}
		t.Cleanup(nodes[i].ts.Close)
	}
	for i, id := range []string{"a", "b"} {
		peer := nodes[1-i]
		srv := serve.New(serve.Options{Workers: 2, Faults: serveFaults[id]})
		node, err := fleet.New(fleet.Config{
			NodeID:    id,
			Advertise: nodes[i].ts.URL,
			Peers:     []string{peer.id + "=" + peer.ts.URL},
			Store:     srv,
			Faults:    fleetFaults[id],
		})
		if err != nil {
			t.Fatal(err)
		}
		srv.SetPeers(node)
		mux := http.NewServeMux()
		mux.Handle("/internal/v1/", srv.Traced(node.Handler()))
		mux.Handle("/", serve.NewHandler(srv))
		late[i].set(mux)
		nodes[i].server, nodes[i].node = srv, node
	}
	return nodes[0], nodes[1]
}

// tinyParams is a full millisecond-scale parameter set; posting its
// JSON overrides every preset field, so the content-address key is
// exactly RequestKey("table12", tinyParams(seed)).
func tinyParams(seed uint64) experiments.Params {
	return experiments.Params{Particles: 400, Order: 5, ProcOrder: 2, Radius: 1, Trials: 1, Seed: seed}
}

// seedOwnedBy probes seeds until the table12 key routes to node
// `want`, so a test can pin either the forward or the peer-fill path.
func seedOwnedBy(t *testing.T, n *testNode, want string) (uint64, experiments.Params) {
	t.Helper()
	for seed := uint64(1); seed < 500; seed++ {
		p := tinyParams(seed)
		owner, _ := n.node.Owner(serve.RequestKey("table12", p))
		if owner.ID == want {
			return seed, p
		}
	}
	t.Fatalf("no seed in [1,500) routes to node %q", want)
	return 0, experiments.Params{}
}

// post sends params as a table12 request; forwarded pins the request
// to the receiving node (the header fleets set on proxied traffic).
func post(t *testing.T, url string, p experiments.Params, forwarded bool) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/experiments/table12", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if forwarded {
		req.Header.Set(serve.HeaderFleetForwarded, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestPeerFillServesWithoutRecompute pins the fleet's core promise:
// a node that misses locally serves its sibling's cached bytes
// without recomputing. Node b's compute path is armed to fail, so a
// 200 proves the result never touched b's runners.
func TestPeerFillServesWithoutRecompute(t *testing.T) {
	computeFails := faultinject.New(1)
	computeFails.Enable(serve.SiteCompute, 1, faultinject.Fault{})
	a, b := startFleet(t, map[string]*faultinject.Injector{"b": computeFails}, nil)

	_, p := seedOwnedBy(t, b, "b") // b owns it: b must peer-fill from a
	warm, warmBody := post(t, a.URL(), p, true)
	if warm.StatusCode != http.StatusOK || warm.Header.Get("X-Cache") != "miss" {
		t.Fatalf("warming a: status %d X-Cache %q: %s", warm.StatusCode, warm.Header.Get("X-Cache"), warmBody)
	}

	resp, body := post(t, b.URL(), p, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("b answered %d (compute fault fired => recompute happened): %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "peer" {
		t.Errorf("X-Cache = %q, want peer", got)
	}
	if !bytes.Equal(body, warmBody) {
		t.Error("peer-filled body is not byte-identical to the warming node's response")
	}

	// The fill populated b's local cache: the next request is a plain hit.
	resp, body2 := post(t, b.URL(), p, false)
	if got := resp.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(body2, warmBody) {
		t.Error("hit after peer fill diverged from the original bytes")
	}
}

// TestForwardToOwner pins the proxy path: a request landing on the
// wrong node is forwarded to the key's owner and the owner's cached
// bytes are relayed verbatim under X-Cache: peer.
func TestForwardToOwner(t *testing.T) {
	computeFails := faultinject.New(1)
	computeFails.Enable(serve.SiteCompute, 1, faultinject.Fault{})
	a, b := startFleet(t, map[string]*faultinject.Injector{"b": computeFails}, nil)

	_, p := seedOwnedBy(t, b, "a") // a owns it: b must forward
	_, warmBody := post(t, a.URL(), p, true)

	resp, body := post(t, b.URL(), p, false)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("b answered %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "peer" {
		t.Errorf("X-Cache = %q, want peer", got)
	}
	if got := resp.Header.Get("X-Fleet-Node"); got != "a" {
		t.Errorf("X-Fleet-Node = %q, want a", got)
	}
	if !bytes.Equal(body, warmBody) {
		t.Error("forwarded body is not byte-identical to the owner's response")
	}
}

// TestPeerFailureDegradesToLocalCompute is the pinned degradation
// test: with every peer request failing by injection, both the
// peer-fill and the forward path fall back to computing locally and
// still answer correctly, as a miss.
func TestPeerFailureDegradesToLocalCompute(t *testing.T) {
	for _, tc := range []struct{ name, owner string }{
		{"fetch path", "b"},   // b owns the key, peer fill from a fails
		{"forward path", "a"}, // a owns the key, forwarding from b fails
	} {
		t.Run(tc.name, func(t *testing.T) {
			peerFails := faultinject.New(1)
			peerFails.Enable(fleet.SitePeerGet, 1, faultinject.Fault{})
			a, b := startFleet(t, nil, map[string]*faultinject.Injector{"b": peerFails})

			_, p := seedOwnedBy(t, b, tc.owner)
			_, warmBody := post(t, a.URL(), p, true)

			resp, body := post(t, b.URL(), p, false)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("b answered %d: %s", resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Cache"); got != "miss" {
				t.Errorf("X-Cache = %q, want miss (local recompute)", got)
			}
			var got, warm resultcache.Envelope
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(warmBody, &warm); err != nil {
				t.Fatal(err)
			}
			if got.Key != warm.Key || !bytes.Equal(got.Result, warm.Result) || !bytes.Equal(got.Params, warm.Params) {
				t.Error("locally recomputed envelope differs from the peer's (key/result/params)")
			}
		})
	}
}

// TestPeerProtocolEndpoints exercises /internal/v1/peek and /result
// directly: presence, the checksummed transfer, and the error cases.
func TestPeerProtocolEndpoints(t *testing.T) {
	a, _ := startFleet(t, nil, nil)
	p := tinyParams(77)
	_, warmBody := post(t, a.URL(), p, true)
	var env resultcache.Envelope
	if err := json.Unmarshal(warmBody, &env); err != nil {
		t.Fatal(err)
	}

	get := func(path string) (*http.Response, []byte) {
		resp, err := http.Get(a.URL() + path)
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp, data
	}

	resp, peek := get("/internal/v1/peek/" + env.Key.String())
	if want := `{"present":true,"node":"a"}` + "\n"; resp.StatusCode != http.StatusOK || string(peek) != want {
		t.Errorf("peek(cached) = %d %s, want 200 %s", resp.StatusCode, peek, want)
	}
	resp, data := get("/internal/v1/result/" + env.Key.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result(cached) = %d", resp.StatusCode)
	}
	entry, err := resultcache.Import(data, env.Key)
	if err != nil {
		t.Fatalf("transferred entry fails checksum import: %v", err)
	}
	if !bytes.Equal(entry.Body, warmBody) {
		t.Error("imported entry body differs from the served body")
	}

	missing := strings.Repeat("0", 64)
	if resp, _ := get("/internal/v1/peek/" + missing); resp.StatusCode != http.StatusNotFound {
		t.Errorf("peek(missing) = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/internal/v1/result/" + missing); resp.StatusCode != http.StatusNotFound {
		t.Errorf("result(missing) = %d, want 404", resp.StatusCode)
	}
	if resp, _ := get("/internal/v1/peek/nothex"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("peek(bad key) = %d, want 400", resp.StatusCode)
	}
}

// TestPeerRoutesTraced: the daemon mounts the peer protocol behind the
// server's tracing, so a direct peek answers with its X-Trace-Id and
// its trace holds the store read as cache.lookup, with an injected
// disk-read fault marked beneath it, and a result read of the entry
// the peek promoted into memory is traced the same way.
func TestPeerRoutesTraced(t *testing.T) {
	dir := t.TempDir()
	disk, err := resultcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	p := tinyParams(91)
	if _, err := serve.New(serve.Options{Workers: 1, Disk: disk}).Do(context.Background(), "table12", p); err != nil {
		t.Fatal(err)
	}

	// A fresh server over the same store holds the entry on disk only.
	disk, err = resultcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	disk.SetFaults(inj)
	inj.EnableN(resultcache.SiteDiskGet, 1, faultinject.Fault{Delay: time.Millisecond}) // latency only
	traces := tracestore.New(tracestore.Options{Seed: 1, SampleProb: 1})
	srv := serve.New(serve.Options{Workers: 1, Disk: disk, Traces: traces})
	node, err := fleet.New(fleet.Config{NodeID: "a", Advertise: "http://a.test", Store: srv})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Traced(node.Handler())
	key := serve.RequestKey("table12", p).String()

	for _, c := range []struct{ path, id, want string }{
		{"/internal/v1/peek/" + key, "peek-1", "request(cache.lookup(fault.resultcache.disk.get))"},
		{"/internal/v1/result/" + key, "result-1", "request(cache.lookup)"},
	} {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		req.Header.Set("X-Trace-Id", c.id)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", c.path, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Trace-Id"); got != c.id {
			t.Errorf("GET %s: X-Trace-Id %q, want %q", c.path, got, c.id)
		}
		tr, ok := traces.Get(c.id)
		if !ok {
			t.Fatalf("GET %s: trace %s not retained", c.path, c.id)
		}
		spans := tr.Snapshot(time.Now()).Spans
		if got := shape(spans); got != c.want {
			t.Fatalf("GET %s: trace %s, want %s", c.path, got, c.want)
		}
		if c.id == "peek-1" && spans[0].Children[0].Attrs["source"] != "disk" {
			t.Errorf("peek's cache.lookup attrs %v, want source disk", spans[0].Children[0].Attrs)
		}
	}
}

// shape renders a span forest as name(children ...).
func shape(spans []obs.PhaseSnapshot) string {
	parts := make([]string, len(spans))
	for i, sp := range spans {
		parts[i] = sp.Name
		if len(sp.Children) > 0 {
			parts[i] += "(" + shape(sp.Children) + ")"
		}
	}
	return strings.Join(parts, " ")
}

// TestSingleNodeFleetParity pins that a fleet of one behaves exactly
// like the plain daemon: same statuses, same key, same result bytes.
func TestSingleNodeFleetParity(t *testing.T) {
	plain := serve.New(serve.Options{Workers: 2})
	plainH := serve.NewHandler(plain)

	fleetSrv := serve.New(serve.Options{Workers: 2})
	node, err := fleet.New(fleet.Config{NodeID: "solo", Advertise: "http://127.0.0.1:1", Store: fleetSrv})
	if err != nil {
		t.Fatal(err)
	}
	fleetSrv.SetPeers(node)
	fleetH := serve.NewHandler(fleetSrv)

	p := tinyParams(42)
	body, _ := json.Marshal(p)
	run := func(h http.Handler) (*httptest.ResponseRecorder, resultcache.Envelope) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiments/table12", bytes.NewReader(body)))
		var env resultcache.Envelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d: %v: %s", rec.Code, err, rec.Body)
		}
		return rec, env
	}

	for i, want := range []string{"miss", "hit"} {
		recP, envP := run(plainH)
		recF, envF := run(fleetH)
		if recP.Header().Get("X-Cache") != want || recF.Header().Get("X-Cache") != want {
			t.Errorf("request %d: X-Cache plain=%q fleet=%q, want %q",
				i, recP.Header().Get("X-Cache"), recF.Header().Get("X-Cache"), want)
		}
		if envP.Key != envF.Key || !bytes.Equal(envP.Result, envF.Result) || !bytes.Equal(envP.Params, envF.Params) {
			t.Errorf("request %d: single-node fleet envelope diverges from the plain daemon", i)
		}
	}
}

// TestBatchAcrossFleet streams a seed sweep through POST /v1/batch on
// one node and checks every cell lands, routed across both members.
func TestBatchAcrossFleet(t *testing.T) {
	_, b := startFleet(t, nil, nil)

	batch := `{"experiments":["table12"],
		"params":{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1},
		"sweep":{"Seed":[1,2,3]}}`
	req, err := http.NewRequest(http.MethodPost, b.URL()+"/v1/batch", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	seenCells := map[int]bool{}
	var done *serve.BatchSummary
	dec := json.NewDecoder(resp.Body)
	for {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		var kind struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &kind); err != nil {
			t.Fatal(err)
		}
		switch kind.Type {
		case "cell":
			var ev serve.CellEvent
			if err := json.Unmarshal(raw, &ev); err != nil {
				t.Fatal(err)
			}
			if ev.Error != "" {
				t.Errorf("cell %d failed: %s", ev.Cell, ev.Error)
			}
			if ev.Node != "a" && ev.Node != "b" {
				t.Errorf("cell %d served by unknown node %q", ev.Cell, ev.Node)
			}
			if ev.Cache == "" || len(ev.Result) == 0 || ev.Key == "" {
				t.Errorf("cell %d event incomplete: %+v", ev.Cell, ev)
			}
			seenCells[ev.Cell] = true
		case "done":
			done = &serve.BatchSummary{}
			if err := json.Unmarshal(raw, done); err != nil {
				t.Fatal(err)
			}
		default:
			t.Errorf("unexpected event type %q", kind.Type)
		}
	}
	if len(seenCells) != 3 || !seenCells[0] || !seenCells[1] || !seenCells[2] {
		t.Errorf("streamed cells %v, want {0,1,2}", seenCells)
	}
	if done == nil || done.Cells != 3 || done.Errors != 0 {
		t.Errorf("summary = %+v, want 3 cells, 0 errors", done)
	}
}
