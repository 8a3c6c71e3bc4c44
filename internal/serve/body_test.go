package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"sfcacd/internal/experiments"
	"sfcacd/internal/resultcache"
)

// wantBody is the response a successful request for e must carry, as
// application/json with its exact Content-Length: the entry's body,
// which is its Envelope as json.Marshal encodes it, plus a newline.
func wantBody(t *testing.T, e resultcache.Entry) []byte {
	t.Helper()
	var env resultcache.Envelope
	if err := json.Unmarshal(e.Body, &env); err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if data = append(data, '\n'); !bytes.Equal(data, e.Body) {
		t.Fatalf("the entry's body is not its encoded Envelope:\n got %.200s\nwant %.200s", e.Body, data)
	}
	return data
}

// checkBody asserts a response's status, X-Cache, headers and body.
func checkBody(t *testing.T, path string, rec *httptest.ResponseRecorder, cache string, want []byte) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Cache"); got != cache {
		t.Errorf("%s: X-Cache = %q, want %q", path, got, cache)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type = %q", path, ct)
	}
	if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
		t.Errorf("%s: Content-Length = %q, want %d", path, cl, len(want))
	}
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("%s: body differs from the encoded envelope\n got %.200s\nwant %.200s", path, rec.Body, want)
	}
}

// indented re-encodes JSON with whitespace, as a peer or an edited disk
// file may supply it.
func indented(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Indent(&buf, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSuccessBodiesByteIdentical pins the stored response body: a miss,
// a coalesced waiter, a hit, a disk promotion and a peer fill of one
// key answer with the same bytes and headers, the ones json.Marshal of
// the entry's Envelope gives. A body with whitespace is served
// compacted, from a peer and from an edited disk file alike, and a
// disk file with the key first parses to the same body.
func TestSuccessBodiesByteIdentical(t *testing.T) {
	const url = "/v1/experiments/table12"
	params, err := mergeParams("table12", "", []byte(tinyBody))
	if err != nil {
		t.Fatal(err)
	}
	key := RequestKey("table12", params)
	disk, err := resultcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	noCompute := func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		t.Error("a cached key was computed again")
		return nil, errors.New("unexpected computation")
	}

	// The miss and a coalesced waiter: the computation is held until
	// the second request has joined it.
	s := New(Options{Workers: 1, Disk: disk})
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		<-release
		return spec.Run(ctx, p)
	}
	h := NewHandler(s)
	var miss, joined *httptest.ResponseRecorder
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); miss = postExperiment(t, h, url, tinyBody) }()
	waitFor(t, "the miss to publish its call", func() bool { return refsOf(s, key) == 1 })
	go func() { defer wg.Done(); joined = postExperiment(t, h, url, tinyBody) }()
	waitFor(t, "the second request to join", func() bool { return refsOf(s, key) == 2 })
	close(release)
	wg.Wait()

	entry, ok := s.CachedEntry(context.Background(), key)
	if !ok {
		t.Fatal("the computed entry is not cached")
	}
	want := wantBody(t, entry)
	checkBody(t, "miss", miss, "miss", want)
	checkBody(t, "coalesced", joined, "coalesced", want)
	checkBody(t, "hit", postExperiment(t, h, url, tinyBody), "hit", want)

	// Disk promotion into a fresh server over the same store.
	promoted := New(Options{Workers: 1, Disk: disk})
	promoted.runFn = noCompute
	checkBody(t, "disk promotion", postExperiment(t, NewHandler(promoted), url, tinyBody), "hit", want)

	// Peer fill: the entry as the wire delivers it, and a body with
	// whitespace shipped under its correct sum.
	for _, tc := range []struct {
		name string
		body []byte
	}{{"peer fill", entry.Body}, {"peer fill with whitespace", indented(t, entry.Body)}} {
		shipped, err := resultcache.Import(resultcache.Export(resultcache.Entry{Key: key, Body: tc.body}), key)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		filled := New(Options{Workers: 1})
		filled.runFn = noCompute
		filled.SetPeers(&stubPeers{self: MemberInfo{ID: "me", Self: true}, isOwn: true, entry: shipped, hasEntry: true})
		checkBody(t, tc.name, postExperiment(t, NewHandler(filled), url, tinyBody), "peer", want)
	}

	// Edited disk files: the body indented by hand, and the fields in
	// the order of a file with the key first.
	var env resultcache.Envelope
	if err := json.Unmarshal(entry.Body, &env); err != nil {
		t.Fatal(err)
	}
	keyFirst, err := json.Marshal(struct {
		Key        resultcache.Key `json:"key"`
		Experiment string          `json:"experiment"`
		Params     json.RawMessage `json:"params"`
		Result     json.RawMessage `json:"result"`
		Manifest   json.RawMessage `json:"manifest,omitempty"`
	}{env.Key, env.Experiment, env.Params, env.Result, env.Manifest})
	if err != nil {
		t.Fatal(err)
	}
	hexKey := key.String()
	for _, tc := range []struct {
		name string
		file []byte
	}{{"edited disk file", indented(t, entry.Body)}, {"key-first disk file", keyFirst}} {
		if bytes.Equal(tc.file, want) {
			t.Fatalf("%s: the file is already the served body", tc.name)
		}
		if err := os.WriteFile(filepath.Join(disk.Dir(), hexKey[:2], hexKey+".json"), tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		reread := New(Options{Workers: 1, Disk: disk})
		reread.runFn = noCompute
		checkBody(t, tc.name, postExperiment(t, NewHandler(reread), url, tinyBody), "hit", want)
	}
}

// TestEntryAccountsOneCopy pins one copy per cached result: at the
// serving benchmark's shape (3,906 particles, order 7, p = 1,024, 3
// trials) a computed entry's accounted size is its body plus the
// cache's 256-byte overhead, and nothing beside it.
func TestEntryAccountsOneCopy(t *testing.T) {
	s := New(Options{Workers: 1})
	p := experiments.Params{Particles: 3906, Order: 7, ProcOrder: 5, Radius: 1, Trials: 3, Seed: 2013}
	resp, err := s.Do(context.Background(), "table12", p)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.Cache().Bytes(), int64(len(resp.Entry.Body)+256); got != want {
		t.Errorf("entry accounts %d bytes, want %d: the %d-byte body and the overhead", got, want, len(resp.Entry.Body))
	}
	t.Logf("table12 entry at the serving shape: %d-byte body, %d bytes accounted", len(resp.Entry.Body), s.Cache().Bytes())
}
