package serve

// Fault-injection tests pinning the serving path's degradation
// matrix (ISSUE 4 / DESIGN §6 "failure modes"):
//
//	disk Get error     -> recompute and serve, serve.disk_errors++
//	disk Put error     -> result still served, serve.disk_errors++
//	corrupt disk entry -> quarantined once; disk_errors stops growing
//	rename "crash"     -> janitor recovers on reopen (resultcache tests)
//	slow compute       -> 504 for its waiter within the deadline,
//	                      coalesced waiters of a fast compute unaffected
//	compute error      -> propagated, nothing cached

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/faultinject"
	"sfcacd/internal/obs"
	"sfcacd/internal/resultcache"
)

// newFaultyDiskServer returns a server over a fresh disk store with a
// fault injector armed on the store, plus the injector for arming
// compute-site faults.
func newFaultyDiskServer(t *testing.T, dir string) (*Server, *faultinject.Injector) {
	t.Helper()
	disk, err := resultcache.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	inj := faultinject.New(1)
	disk.SetFaults(inj)
	s := New(Options{Workers: 2, Disk: disk, Faults: inj})
	return s, inj
}

func TestInjectedDiskGetErrorRecomputes(t *testing.T) {
	s, inj := newFaultyDiskServer(t, t.TempDir())
	var runs atomic.Int64
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		runs.Add(1)
		return fakeOutput(p), nil
	}
	inj.EnableN(resultcache.SiteDiskGet, 1, faultinject.Fault{})
	errsBefore := obs.GetCounter("serve.disk_errors").Value()

	resp, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatalf("Do with injected disk Get error: %v", err)
	}
	if resp.Status != StatusMiss || runs.Load() != 1 {
		t.Errorf("status=%q runs=%d, want recompute on disk error", resp.Status, runs.Load())
	}
	if got := obs.GetCounter("serve.disk_errors").Value() - errsBefore; got != 1 {
		t.Errorf("serve.disk_errors delta = %d, want 1", got)
	}
}

func TestInjectedDiskPutErrorStillServes(t *testing.T) {
	dir := t.TempDir()
	s, inj := newFaultyDiskServer(t, dir)
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		return fakeOutput(p), nil
	}
	inj.EnableN(resultcache.SiteDiskPut, 1, faultinject.Fault{})
	errsBefore := obs.GetCounter("serve.disk_errors").Value()

	resp, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil {
		t.Fatalf("Do with injected disk Put error: %v", err)
	}
	if resp.Status != StatusMiss || len(resp.Entry.Result) == 0 {
		t.Errorf("response %+v, want computed result despite Put failure", resp.Status)
	}
	if got := obs.GetCounter("serve.disk_errors").Value() - errsBefore; got != 1 {
		t.Errorf("serve.disk_errors delta = %d, want 1", got)
	}
	// Nothing landed on disk, and no temp files leaked.
	if entries, _ := filepath.Glob(filepath.Join(dir, "*", "*.json")); len(entries) != 0 {
		t.Errorf("failed Put left entries: %v", entries)
	}
	if orphans, _ := filepath.Glob(filepath.Join(dir, "*", "entry-*.tmp")); len(orphans) != 0 {
		t.Errorf("failed Put left temp files: %v", orphans)
	}
}

// TestQuarantineStopsDiskErrors: a corrupt on-disk entry costs one
// serve.disk_errors increment, then is quarantined — later cold misses
// on the same key hit a clean miss, not the same error again.
func TestQuarantineStopsDiskErrors(t *testing.T) {
	dir := t.TempDir()
	key := keyOf("table12", tinyParams)
	hexKey := key.String()
	if err := os.MkdirAll(filepath.Join(dir, hexKey[:2]), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, hexKey[:2], hexKey+".json"), []byte("{trunc"), 0o644); err != nil {
		t.Fatal(err)
	}

	stub := func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		return fakeOutput(p), nil
	}
	errsBefore := obs.GetCounter("serve.disk_errors").Value()
	quarBefore := obs.GetCounter("resultcache.disk_quarantined").Value()

	// First cold server: corrupt entry -> one disk error, quarantine,
	// recompute. The injected Put failure keeps the recomputed result
	// from overwriting the slot, so the next cold miss exercises the
	// post-quarantine disk path.
	s1, inj := newFaultyDiskServer(t, dir)
	s1.runFn = stub
	inj.EnableN(resultcache.SiteDiskPut, 1, faultinject.Fault{})
	if resp, err := s1.Do(context.Background(), "table12", tinyParams); err != nil || resp.Status != StatusMiss {
		t.Fatalf("first cold request = %v status %v, want clean miss", err, resp.Status)
	}
	// Two errors: the corrupt Get and the injected Put.
	if got := obs.GetCounter("serve.disk_errors").Value() - errsBefore; got != 2 {
		t.Errorf("serve.disk_errors delta after corrupt entry = %d, want 2", got)
	}
	if got := obs.GetCounter("resultcache.disk_quarantined").Value() - quarBefore; got != 1 {
		t.Errorf("resultcache.disk_quarantined delta = %d, want 1", got)
	}

	// Second cold server, same disk: the quarantined file is out of the
	// lookup path, so disk_errors stops growing.
	errsMid := obs.GetCounter("serve.disk_errors").Value()
	s2, _ := newFaultyDiskServer(t, dir)
	s2.runFn = stub
	if resp, err := s2.Do(context.Background(), "table12", tinyParams); err != nil || resp.Status != StatusMiss {
		t.Fatalf("post-quarantine request = %v status %v, want clean miss", err, resp.Status)
	}
	if got := obs.GetCounter("serve.disk_errors").Value() - errsMid; got != 0 {
		t.Errorf("serve.disk_errors kept growing after quarantine (delta %d)", got)
	}
}

// TestSlowComputeDeadline504WhileFastComputeServes: the slow compute's
// waiter gets a DeadlineError (504) within its deadline; coalesced
// waiters of a concurrent fast compute are answered normally.
func TestSlowComputeDeadline504WhileFastComputeServes(t *testing.T) {
	inj := faultinject.New(1)
	s := New(Options{Workers: 2, ComputeTimeout: 100 * time.Millisecond, Faults: inj})
	var fastRuns atomic.Int64
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		fastRuns.Add(1)
		return fakeOutput(p), nil
	}
	// Exactly one injected stall, consumed by the slow key's compute
	// (we wait for the injection before issuing the fast requests).
	inj.EnableN(SiteCompute, 1, faultinject.Fault{Delay: time.Hour})
	deadlinesBefore := obs.GetCounter("serve.deadline_exceeded").Value()

	slow, fast := tinyParams, tinyParams
	slow.Seed, fast.Seed = 100, 200
	slowDone := make(chan error, 1)
	go func() {
		_, err := s.Do(context.Background(), "table12", slow)
		slowDone <- err
	}()
	waitFor(t, "slow compute to hit the injected stall", func() bool {
		return obs.GetCounter("faultinject."+SiteCompute).Value() > 0
	})

	// Two coalesced waiters on the fast key are unaffected.
	fastDone := make(chan Response, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := s.Do(context.Background(), "table12", fast)
			if err != nil {
				t.Errorf("fast waiter: %v", err)
			}
			fastDone <- resp
		}()
	}
	for i := 0; i < 2; i++ {
		if resp := <-fastDone; len(resp.Entry.Result) == 0 {
			t.Error("fast waiter got an empty result")
		}
	}
	if got := fastRuns.Load(); got != 1 {
		t.Errorf("fast key computed %d times, want 1 (coalesced)", got)
	}

	var de *DeadlineError
	err := <-slowDone
	if !errors.As(err, &de) {
		t.Fatalf("slow waiter returned %v, want DeadlineError", err)
	}
	if de.Timeout != 100*time.Millisecond {
		t.Errorf("DeadlineError.Timeout = %v, want the configured 100ms", de.Timeout)
	}
	if got := obs.GetCounter("serve.deadline_exceeded").Value() - deadlinesBefore; got != 1 {
		t.Errorf("serve.deadline_exceeded delta = %d, want 1", got)
	}
}

// TestHandlerComputeTimeout504 pins the HTTP shape: 504 with a
// structured JSON body naming the deadline.
func TestHandlerComputeTimeout504(t *testing.T) {
	s := New(Options{Workers: 1, ComputeTimeout: 20 * time.Millisecond})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	rec := postExperiment(t, NewHandler(s), "/v1/experiments/table12", tinyBody)
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
		t.Fatalf("504 body is not JSON: %v", err)
	}
	if !strings.Contains(eb.Error, "deadline") || eb.Timeout != "20ms" {
		t.Errorf("504 body = %+v, want error mentioning the 20ms deadline", eb)
	}
}

func TestInjectedComputeErrorPropagates(t *testing.T) {
	inj := faultinject.New(1)
	inj.EnableN(SiteCompute, 1, faultinject.Fault{})
	s := New(Options{Workers: 1, Faults: inj})
	if _, err := s.Do(context.Background(), "table12", tinyParams); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("Do = %v, want ErrInjected", err)
	}
	// Nothing was cached; the next request recomputes cleanly.
	resp, err := s.Do(context.Background(), "table12", tinyParams)
	if err != nil || resp.Status != StatusMiss {
		t.Errorf("request after injected failure = %v status %v, want clean miss", err, resp.Status)
	}
}

// TestDrain: Drain returns once in-flight computations finish, and
// times out (without hanging) while one is still running.
func TestDrain(t *testing.T) {
	s := New(Options{Workers: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		close(started)
		<-release
		return fakeOutput(p), nil
	}
	done := make(chan struct{})
	go func() {
		s.Do(context.Background(), "table12", tinyParams)
		close(done)
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with a running compute = %v, want DeadlineExceeded", err)
	}
	close(release)
	<-done
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain after completion = %v", err)
	}
}

// TestFaultMarksInTrace: every injected fault a traced miss meets is a
// mark in that request's trace, on the span of the phase that raised
// it: the disk read under cache.lookup, the compute fault and the disk
// write under compute.
func TestFaultMarksInTrace(t *testing.T) {
	s, inj := newFaultyDiskServer(t, t.TempDir())
	s.runFn = func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
		return fakeOutput(p), nil
	}
	slow := faultinject.Fault{Delay: time.Millisecond} // latency only: the request succeeds
	for _, site := range []string{resultcache.SiteDiskGet, SiteCompute, resultcache.SiteDiskPut} {
		inj.EnableN(site, 1, slow)
	}
	tr := obs.NewTrace("faults1", "POST /v1/experiments/table12", time.Now())
	if _, err := s.Do(obs.ContextWithTrace(context.Background(), tr), "table12", tinyParams); err != nil {
		t.Fatal(err)
	}
	tr.Finish(http.StatusOK, time.Now())
	got := spanShape(tr.Snapshot(time.Now()).Spans, 0)
	want := "request(cache.lookup(fault.resultcache.disk.get) compute(fault.resultcache.disk.put fault.serve.compute queue.wait) wait)"
	if got != want {
		t.Errorf("trace = %s, want %s", got, want)
	}
}
