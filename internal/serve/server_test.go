package serve

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
)

// tinyParams is a configuration the real runners finish in
// milliseconds; integration tests use it so the race-enabled suite
// stays fast.
var tinyParams = experiments.Params{Particles: 400, Order: 5, ProcOrder: 2, Radius: 1, Trials: 1, Seed: 11}

// keyOf mirrors Server.Do's key derivation for white-box assertions.
func keyOf(experiment string, p experiments.Params) resultcache.Key {
	return resultcache.KeyFor(experiment, p.CanonicalKey(), experiments.ResultSchemaVersion)
}

// fakeOutput is what stubbed runners return; an empty result set is
// enough to exercise marshaling and caching.
func fakeOutput(p experiments.Params) *experiments.Output {
	return &experiments.Output{Params: p, Result: experiments.Table12Set{}}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// refsOf returns the in-flight call's reference count, or -1 when no
// call is published for the key.
func refsOf(s *Server, k resultcache.Key) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.inflight[k]; ok {
		return c.refs
	}
	return -1
}

// TestCoalescingExactlyOneComputation pins the coalescing contract
// deterministically: while one computation is in flight, any number of
// identical requests join it, the runner executes exactly once, and
// every waiter receives the same entry.
func TestCoalescingExactlyOneComputation(t *testing.T) {
	const clients = 64
	s := New(Options{Workers: 4})
	var runs atomic.Int64
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		select {
		case <-release:
			return fakeOutput(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	compBefore := obs.GetCounter("serve.computations").Value()

	var wg sync.WaitGroup
	responses := make([]Response, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], errs[i] = s.Do(context.Background(), "table12", tinyParams)
		}(i)
	}
	// Every client is a joined waiter before the computation finishes.
	key := keyOf("table12", tinyParams)
	waitFor(t, "all clients to join the in-flight call", func() bool { return refsOf(s, key) == clients })
	close(release)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("runner executed %d times, want exactly 1", got)
	}
	if got := obs.GetCounter("serve.computations").Value() - compBefore; got != 1 {
		t.Errorf("serve.computations delta = %d, want 1", got)
	}
	var miss, coalesced int
	for i := range responses {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		switch responses[i].Status {
		case StatusMiss:
			miss++
		case StatusCoalesced:
			coalesced++
		default:
			t.Errorf("client %d: status %q", i, responses[i].Status)
		}
		if !bytes.Equal(responses[i].Entry.Body, responses[0].Entry.Body) ||
			responses[i].Entry.Key != responses[0].Entry.Key {
			t.Errorf("client %d received a different entry", i)
		}
	}
	if miss != 1 || coalesced != clients-1 {
		t.Errorf("miss=%d coalesced=%d, want 1/%d", miss, coalesced, clients-1)
	}
}

// TestDistinctKeysComputeIndependently: distinct parameter sets never
// share a computation — one runner execution per distinct key, even
// with many concurrent duplicates of each.
func TestDistinctKeysComputeIndependently(t *testing.T) {
	const keys, dup = 8, 8
	s := New(Options{Workers: 4})
	var perKey sync.Map // canonical key -> *atomic.Int64
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		v, _ := perKey.LoadOrStore(p.CanonicalKey(), new(atomic.Int64))
		v.(*atomic.Int64).Add(1)
		return fakeOutput(p), nil
	}
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		p := tinyParams
		p.Seed = uint64(1000 + k)
		for d := 0; d < dup; d++ {
			wg.Add(1)
			go func(p experiments.Params) {
				defer wg.Done()
				if _, err := s.Do(context.Background(), "table12", p); err != nil {
					t.Errorf("Do: %v", err)
				}
			}(p)
		}
	}
	wg.Wait()
	distinct := 0
	perKey.Range(func(_, v any) bool {
		distinct++
		if got := v.(*atomic.Int64).Load(); got != 1 {
			t.Errorf("a key computed %d times, want 1", got)
		}
		return true
	})
	if distinct != keys {
		t.Errorf("%d distinct keys computed, want %d", distinct, keys)
	}
}

// TestHitByteIdenticalToMiss runs a real experiment once and asserts
// the cached replay is byte-for-byte the entry the miss produced.
func TestHitByteIdenticalToMiss(t *testing.T) {
	s := New(Options{Workers: 2})
	first, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if first.Status != StatusMiss {
		t.Fatalf("first request status %q, want miss", first.Status)
	}
	second, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if second.Status != StatusHit {
		t.Fatalf("second request status %q, want hit", second.Status)
	}
	if second.Entry.Key != first.Entry.Key || !bytes.Equal(second.Entry.Body, first.Entry.Body) {
		t.Error("cache hit is not byte-identical to the miss that produced it")
	}
	if len(first.Entry.Body) == 0 {
		t.Error("empty body")
	}
}

// TestOverloadRejection: with one worker and a queue bound of one, a
// third concurrent computation is rejected immediately with the
// observed depth.
func TestOverloadRejection(t *testing.T) {
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
	rejBefore := obs.GetCounter("serve.rejections").Value()

	pA, pB, pC := tinyParams, tinyParams, tinyParams
	pA.Seed, pB.Seed, pC.Seed = 1, 2, 3
	var wg sync.WaitGroup
	for _, p := range []experiments.Params{pA, pB} {
		wg.Add(1)
		go func(p experiments.Params) {
			defer wg.Done()
			if _, err := s.Do(context.Background(), "table12", p); err != nil {
				t.Errorf("admitted request failed: %v", err)
			}
		}(p)
	}
	// A holds the worker slot, B waits in the queue: admission depth 2.
	waitFor(t, "both computations admitted", func() bool { return s.queued.Load() == 2 })

	_, err := s.Do(context.Background(), "table12", pC)
	var overload *OverloadError
	if !errors.As(err, &overload) {
		t.Fatalf("third request error = %v, want OverloadError", err)
	}
	if overload.QueueDepth != 2 {
		t.Errorf("rejection reported depth %d, want 2", overload.QueueDepth)
	}
	if got := obs.GetCounter("serve.rejections").Value() - rejBefore; got != 1 {
		t.Errorf("serve.rejections delta = %d, want 1", got)
	}
	close(release)
	wg.Wait()
}

// TestClientDisconnectCancelsComputation: when the only waiter
// abandons, the computation's context is canceled and a later request
// starts fresh.
func TestClientDisconnectCancelsComputation(t *testing.T) {
	s := New(Options{Workers: 1})
	var runs atomic.Int64
	canceled := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		if runs.Add(1) == 1 {
			<-ctx.Done() // simulate a long computation that honors ctx
			close(canceled)
			return nil, ctx.Err()
		}
		return fakeOutput(p), nil
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := s.Do(ctx, "table12", tinyParams)
		done <- err
	}()
	waitFor(t, "computation to start", func() bool { return runs.Load() == 1 })
	cancel()

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned request returned %v, want context.Canceled", err)
	}
	select {
	case <-canceled:
	case <-time.After(10 * time.Second):
		t.Fatal("computation context was never canceled after the last waiter left")
	}

	// The abandoned call is unpublished: a fresh request recomputes.
	resp, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusMiss || runs.Load() != 2 {
		t.Errorf("retry after abandon: status=%q runs=%d, want miss/2", resp.Status, runs.Load())
	}
}

// TestAbandonOneWaiterKeepsOthers: an impatient client dropping out
// must not cancel a computation other clients still wait on.
func TestAbandonOneWaiterKeepsOthers(t *testing.T) {
	s := New(Options{Workers: 1})
	var runs atomic.Int64
	release := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		select {
		case <-release:
			return fakeOutput(p), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	key := keyOf("table12", tinyParams)

	impatientCtx, cancelImpatient := context.WithCancel(context.Background())
	impatientDone := make(chan error, 1)
	go func() {
		_, err := s.Do(impatientCtx, "table12", tinyParams)
		impatientDone <- err
	}()
	waitFor(t, "leader to publish its call", func() bool { return refsOf(s, key) == 1 })

	patientDone := make(chan Response, 1)
	go func() {
		resp, err := s.Do(context.Background(), "table12", tinyParams)
		if err != nil {
			t.Errorf("patient client: %v", err)
		}
		patientDone <- resp
	}()
	waitFor(t, "second client to join", func() bool { return refsOf(s, key) == 2 })

	cancelImpatient()
	if err := <-impatientDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("impatient client returned %v, want context.Canceled", err)
	}
	close(release)
	resp := <-patientDone
	if resp.Status != StatusCoalesced {
		t.Errorf("patient client status %q, want coalesced", resp.Status)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("runner executed %d times, want 1", got)
	}
}

// TestRealCoalescing64 is the acceptance check with the real runner
// under the race detector: 64 concurrent identical requests execute
// the experiment exactly once (verified by the obs counter) and all
// receive byte-identical entries.
func TestRealCoalescing64(t *testing.T) {
	const clients = 64
	s := New(Options{Workers: 2})
	compBefore := obs.GetCounter("serve.computations").Value()

	p := tinyParams
	p.Particles, p.Order, p.Trials = 2000, 6, 2 // a few ms: long enough to overlap
	var wg sync.WaitGroup
	responses := make([]Response, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := s.Do(context.Background(), "table12", p)
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()

	if got := obs.GetCounter("serve.computations").Value() - compBefore; got != 1 {
		t.Errorf("serve.computations delta = %d, want exactly 1 for 64 identical requests", got)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(responses[i].Entry.Body, responses[0].Entry.Body) {
			t.Errorf("client %d received a different body", i)
		}
	}
}

// TestDiskPromotion: a second server over the same disk store serves a
// hit without recomputation, and a corrupt on-disk entry degrades to
// recomputation instead of an error.
func TestDiskPromotion(t *testing.T) {
	disk, err := resultcache.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	warm := New(Options{Workers: 1, Disk: disk})
	first, err := warm.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}

	diskHitsBefore := obs.GetCounter("serve.disk_hits").Value()
	cold := New(Options{Workers: 1, Disk: disk})
	var runs atomic.Int64
	cold.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		return fakeOutput(p), nil
	}
	resp, err := cold.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != StatusHit || runs.Load() != 0 {
		t.Errorf("disk-backed request: status=%q runs=%d, want hit without recomputation", resp.Status, runs.Load())
	}
	if !bytes.Equal(resp.Entry.Body, first.Entry.Body) {
		t.Error("disk-served entry differs from the original computation")
	}
	if got := obs.GetCounter("serve.disk_hits").Value() - diskHitsBefore; got != 1 {
		t.Errorf("serve.disk_hits delta = %d, want 1", got)
	}
}

func TestDoErrors(t *testing.T) {
	s := New(Options{Workers: 1})
	if _, err := s.Do(context.Background(), "nonesuch", tinyParams); !errors.Is(err, ErrUnknownExperiment) {
		t.Errorf("unknown experiment error = %v, want ErrUnknownExperiment", err)
	}
	bad := tinyParams
	bad.Particles = 0
	if _, err := s.Do(context.Background(), "table12", bad); !errors.Is(err, ErrInvalidParams) {
		t.Errorf("invalid params error = %v, want ErrInvalidParams", err)
	}
}
