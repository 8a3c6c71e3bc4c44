package serve

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"sfcacd/internal/experiments"
	"sfcacd/internal/resultcache"
)

// stubPeers scripts a PeerSource so the serving layer's fleet hooks
// can be tested without real peers.
type stubPeers struct {
	self  MemberInfo
	owner MemberInfo // what Owner reports
	isOwn bool

	entry    resultcache.Entry // returned by Fetch when filled
	hasEntry bool
	fetches  atomic.Int64

	forwardFn func(experiment, preset string, body []byte) (*ForwardResult, error)
	forwards  atomic.Int64
}

func (s *stubPeers) Self() MemberInfo      { return s.self }
func (s *stubPeers) Members() []MemberInfo { return []MemberInfo{s.self, s.owner} }
func (s *stubPeers) Owner(resultcache.Key) (MemberInfo, bool) {
	if s.isOwn {
		return s.self, true
	}
	return s.owner, false
}
func (s *stubPeers) Fetch(ctx context.Context, key resultcache.Key) (resultcache.Entry, bool) {
	s.fetches.Add(1)
	return s.entry, s.hasEntry
}
func (s *stubPeers) Forward(ctx context.Context, owner MemberInfo, experiment, preset string, body []byte) (*ForwardResult, error) {
	s.forwards.Add(1)
	if s.forwardFn == nil {
		return nil, errors.New("no forward scripted")
	}
	return s.forwardFn(experiment, preset, body)
}

// newRequest and doRequest mirror postExperiment for tests that need
// to set headers on the request first.
func newRequest(t *testing.T, url, body string) *http.Request {
	t.Helper()
	return httptest.NewRequest(http.MethodPost, url, strings.NewReader(body))
}

func doRequest(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// peerEntry fabricates the finished entry a peer would hold for the
// given request.
func peerEntry(t *testing.T, experiment string, p experiments.Params) resultcache.Entry {
	t.Helper()
	e, err := resultcache.NewEntry(resultcache.Envelope{
		Experiment: experiment,
		Key:        keyOf(experiment, p),
		Params:     []byte(`{"from":"peer"}`),
		Result:     []byte(`{"rows":[]}`),
		Manifest:   []byte(`{"node":"other"}`),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDoPeerFillThenHit pins the miss path's peer hook: a miss that a
// peer can fill returns StatusPeer without running the experiment, and
// the filled entry serves the next request as a plain local hit.
func TestDoPeerFillThenHit(t *testing.T) {
	s := New(Options{Workers: 1})
	var runs atomic.Int64
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		return fakeOutput(p), nil
	}
	peers := &stubPeers{
		self:     MemberInfo{ID: "me", Self: true},
		owner:    MemberInfo{ID: "me", Self: true},
		isOwn:    true,
		entry:    peerEntry(t, "table12", tinyParams),
		hasEntry: true,
	}
	s.SetPeers(peers)

	resp, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusPeer {
		t.Errorf("status = %q, want %q", resp.Status, StatusPeer)
	}
	if runs.Load() != 0 {
		t.Errorf("runner executed %d times; a peer fill must not compute", runs.Load())
	}
	if !bytes.Equal(resp.Entry.Body, peers.entry.Body) {
		t.Error("peer-filled response does not carry the peer's entry")
	}

	resp, err = s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusHit {
		t.Errorf("second request status = %q, want %q (fill populates the cache)", resp.Status, StatusHit)
	}
	if peers.fetches.Load() != 1 {
		t.Errorf("peers consulted %d times, want 1", peers.fetches.Load())
	}
}

// TestDoPeerMissComputes pins that an empty fleet answer degrades to
// the normal compute path.
func TestDoPeerMissComputes(t *testing.T) {
	s := New(Options{Workers: 1})
	var runs atomic.Int64
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		return fakeOutput(p), nil
	}
	s.SetPeers(&stubPeers{self: MemberInfo{ID: "me", Self: true}, isOwn: true})

	resp, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusMiss || runs.Load() != 1 {
		t.Errorf("status %q after %d runs, want miss after exactly one", resp.Status, runs.Load())
	}
}

// TestHandlerForwardsToOwner pins the proxy path at the HTTP layer:
// the owner's relayed hit surfaces as X-Cache: peer with the owner's
// exact bytes, and a forwarded request is never forwarded again.
func TestHandlerForwardsToOwner(t *testing.T) {
	s := New(Options{Workers: 1})
	var runs atomic.Int64
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		return fakeOutput(p), nil
	}
	ownerBody := []byte(`{"experiment":"table12","key":"abc","params":{},"result":{}}` + "\n")
	peers := &stubPeers{
		self:  MemberInfo{ID: "me", Self: true},
		owner: MemberInfo{ID: "owner"},
		forwardFn: func(experiment, preset string, body []byte) (*ForwardResult, error) {
			return &ForwardResult{StatusCode: http.StatusOK, Cache: "hit", Body: ownerBody}, nil
		},
	}
	s.SetPeers(peers)
	h := NewHandler(s)

	rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "peer" {
		t.Errorf("X-Cache = %q, want peer (owner hit relayed)", got)
	}
	if got := rec.Header().Get("X-Fleet-Node"); got != "owner" {
		t.Errorf("X-Fleet-Node = %q, want owner", got)
	}
	if !bytes.Equal(rec.Body.Bytes(), ownerBody) {
		t.Error("relayed body is not the owner's exact bytes")
	}
	if runs.Load() != 0 {
		t.Error("forwarded request also computed locally")
	}

	// The forwarded marker pins the request here: no second hop.
	req := newRequest(t, "/v1/experiments/table12", tinyBody)
	req.Header.Set(HeaderFleetForwarded, "1")
	rec = doRequest(h, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("forwarded request status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("forwarded request X-Cache = %q, want miss (served locally)", got)
	}
	if peers.forwards.Load() != 1 {
		t.Errorf("Forward called %d times, want 1", peers.forwards.Load())
	}
}

// TestHandlerForwardFailureDegradesLocally pins graceful degradation
// at the HTTP layer: a dead owner costs a local recompute, never an
// error surfaced to the client.
func TestHandlerForwardFailureDegradesLocally(t *testing.T) {
	s := New(Options{Workers: 1})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		return fakeOutput(p), nil
	}
	s.SetPeers(&stubPeers{
		self:  MemberInfo{ID: "me", Self: true},
		owner: MemberInfo{ID: "owner"},
		forwardFn: func(experiment, preset string, body []byte) (*ForwardResult, error) {
			return nil, errors.New("owner unreachable")
		},
	})
	h := NewHandler(s)

	rec := postExperiment(t, h, "/v1/experiments/table12", tinyBody)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("X-Cache = %q, want miss (local fallback)", got)
	}
}
