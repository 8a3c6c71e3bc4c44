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

// wantBody is the response a successful request for e must carry: the
// entry's Envelope as json.Marshal encodes it, plus a newline, written
// as application/json with its exact Content-Length.
func wantBody(t *testing.T, e resultcache.Entry) []byte {
	t.Helper()
	data, err := json.Marshal(Envelope{
		Experiment: e.Experiment,
		Key:        e.Key.String(),
		Params:     e.Params,
		Result:     e.Result,
		Manifest:   e.Manifest,
	})
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
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

// indented re-encodes raw JSON with whitespace, as a peer or an edited
// disk file may supply it.
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
// the entry's Envelope gives. An entry whose raw fields carry
// whitespace is served compacted, from a peer and from an edited disk
// file alike.
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

	// Peer fill: the entry as the wire delivers it, and again with
	// whitespace in its raw fields.
	wire, err := resultcache.Export(entry)
	if err != nil {
		t.Fatal(err)
	}
	shipped, err := resultcache.Import(wire, key)
	if err != nil {
		t.Fatal(err)
	}
	spaced := shipped
	spaced.Params, spaced.Result, spaced.Manifest = indented(t, shipped.Params), indented(t, shipped.Result), indented(t, shipped.Manifest)
	for _, tc := range []struct {
		name  string
		entry resultcache.Entry
	}{{"peer fill", shipped}, {"peer fill with whitespace", spaced}} {
		filled := New(Options{Workers: 1})
		filled.runFn = noCompute
		filled.SetPeers(&stubPeers{self: MemberInfo{ID: "me", Self: true}, isOwn: true, entry: tc.entry, hasEntry: true})
		checkBody(t, tc.name, postExperiment(t, NewHandler(filled), url, tinyBody), "peer", want)
	}

	// An edited disk file: the same entry, indented by hand.
	edited, err := json.MarshalIndent(entry, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	hexKey := key.String()
	if err := os.WriteFile(filepath.Join(disk.Dir(), hexKey[:2], hexKey+".json"), edited, 0o644); err != nil {
		t.Fatal(err)
	}
	if e, ok, err := disk.Get(nil, key); err != nil || !ok || !bytes.Contains(e.Result, []byte("\n  ")) {
		t.Fatalf("edited entry did not keep its whitespace (ok=%v err=%v)", ok, err)
	}
	reread := New(Options{Workers: 1, Disk: disk})
	reread.runFn = noCompute
	checkBody(t, "edited disk file", postExperiment(t, NewHandler(reread), url, tinyBody), "hit", want)
}
