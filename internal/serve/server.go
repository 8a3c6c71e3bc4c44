// Package serve turns the experiment registry into a service: a
// bounded worker pool with an admission queue, request coalescing so N
// concurrent identical requests share one computation, and a
// content-addressed result cache (internal/resultcache) so repeated
// requests are answered from memory without recomputation.
//
// The request lifecycle of Server.Do:
//
//  1. Resolve the experiment in experiments.Registry and validate the
//     parameters; derive the content address from the canonical
//     parameter encoding.
//  2. Serve from the in-memory cache, then the optional disk store
//     (promoting disk hits into memory).
//  3. Coalesce: if an identical computation is already in flight, join
//     it instead of starting another. Exactly one computation runs per
//     distinct key at any time.
//  4. Admit: the computation waits for a worker slot; when the queue
//     is full the request is rejected immediately with the observed
//     depth, so callers get backpressure instead of unbounded latency.
//  5. Compute, cache, and answer every joined waiter with the same
//     entry.
//
// Cancellation is reference-counted: each joined request holds one
// reference, a request that abandons (client disconnect, timeout)
// drops its reference, and the underlying computation's context is
// canceled only when the last reference is gone — one impatient
// client cannot kill a result that other clients are still waiting
// for.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/faultinject"
	"sfcacd/internal/obs"
	"sfcacd/internal/obs/tracestore"
	"sfcacd/internal/panics"
	"sfcacd/internal/resultcache"
)

// SiteCompute is the fault-injection point wrapping every experiment
// computation; injected latency there simulates a slow or wedged
// runner, injected errors a failing one.
const SiteCompute = "serve.compute"

// DefaultComputeTimeout bounds how long one request waits for its
// computation when Options.ComputeTimeout is zero. Paper-preset runs
// finish well inside it; a wedged computation turns into a 504 instead
// of an indefinitely held client connection.
const DefaultComputeTimeout = 5 * time.Minute

// ErrUnknownExperiment reports a request for a name not in the
// registry.
var ErrUnknownExperiment = errors.New("serve: unknown experiment")

// ErrInvalidParams wraps a parameter validation failure.
var ErrInvalidParams = errors.New("serve: invalid parameters")

// OverloadError is returned when the admission queue is full. It
// carries the depth observed at rejection time so clients can back
// off proportionally.
type OverloadError struct {
	// QueueDepth is the number of computations admitted or waiting at
	// the time of rejection.
	QueueDepth int
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded, %d computations queued", e.QueueDepth)
}

// DeadlineError is returned when a request's server-applied compute
// deadline passes before its computation finishes. Only the timed-out
// request is affected: its reference on the shared computation is
// dropped, and other coalesced waiters keep waiting. The HTTP layer
// maps it to 504 Gateway Timeout.
type DeadlineError struct {
	// Timeout is the per-request compute deadline that passed.
	Timeout time.Duration
}

func (e *DeadlineError) Error() string {
	return fmt.Sprintf("serve: computation exceeded the %v request deadline", e.Timeout)
}

// PanicError is returned when a computation panics. The panic is
// recovered on the compute goroutine, so the process survives; every
// coalesced waiter receives the error, nothing is cached, and the next
// identical request computes afresh. The HTTP layer maps it to 500.
// The sweep cells, the pricing workers and the plan recorders re-raise
// a worker's panic on the goroutine that waits for them, so it arrives
// here too. Panics on the worker goroutines of anns, primitives and
// model3d are not recovered and stay fatal.
type PanicError struct {
	// Value is the value the computation panicked with.
	Value any
	// Stack is the panicking goroutine's stack, truncated to
	// panicStackMax bytes.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("serve: computation panicked: %v", e.Value)
}

// panicStackMax bounds the stack a PanicError carries.
const panicStackMax = 4 << 10

// Status classifies how a request was satisfied.
type Status string

const (
	// StatusHit means the result came from the cache.
	StatusHit Status = "hit"
	// StatusMiss means this request led a fresh computation.
	StatusMiss Status = "miss"
	// StatusCoalesced means the request joined a computation another
	// request had already started.
	StatusCoalesced Status = "coalesced"
	// StatusPeer means the result was fetched, already finished, from
	// a fleet peer's cache instead of being computed locally.
	StatusPeer Status = "peer"
)

// MemberInfo identifies one fleet member as the serving layer sees it.
type MemberInfo struct {
	// ID is the member's stable name (the ring hashes it).
	ID string `json:"id"`
	// URL is the base URL peers reach the member at.
	URL string `json:"url"`
	// Self marks the member describing itself.
	Self bool `json:"self,omitempty"`
}

// ForwardResult is a proxied experiment response from the owner node.
type ForwardResult struct {
	// StatusCode is the owner's HTTP status.
	StatusCode int
	// Cache is the owner's X-Cache header value.
	Cache string
	// Body is the owner's response body, relayed verbatim so a
	// forwarded response is byte-identical to asking the owner
	// directly.
	Body []byte
}

// PeerSource is the serving layer's view of the fleet, implemented by
// internal/fleet.Node (the interface lives here so fleet can import
// serve without a cycle). All methods must be safe for concurrent
// use. Fetch and Forward must degrade by returning (zero, false) or
// an error — never block beyond their own timeouts — because every
// caller falls back to local computation.
type PeerSource interface {
	// Self describes this node.
	Self() MemberInfo
	// Members lists the fleet membership, self included.
	Members() []MemberInfo
	// Owner routes a content address to its owner replica.
	Owner(key resultcache.Key) (MemberInfo, bool)
	// Fetch retrieves a finished entry from the owner and sibling
	// replicas' caches; it never triggers a computation anywhere.
	Fetch(ctx context.Context, key resultcache.Key) (resultcache.Entry, bool)
	// Forward proxies one experiment request to the owner, which
	// computes (or serves from cache) under its own admission control.
	Forward(ctx context.Context, owner MemberInfo, experiment, preset string, body []byte) (*ForwardResult, error)
}

// Response is one answered request.
type Response struct {
	// Status records the serving path taken.
	Status Status
	// Entry is the content-addressed result.
	Entry resultcache.Entry
}

// Options configures a Server.
type Options struct {
	// Workers bounds concurrent computations; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds computations waiting for a worker slot beyond
	// the Workers running ones; 0 means 64. When the bound is hit new
	// computations are rejected with an OverloadError (cache hits and
	// coalesced joins are never rejected).
	QueueDepth int
	// CacheBytes bounds the in-memory result cache; 0 means 256 MiB.
	CacheBytes int64
	// Disk, when set, persists results and serves misses that an
	// earlier process already computed.
	Disk *resultcache.DiskStore
	// ComputeTimeout bounds how long one request waits for its
	// computation before failing with a DeadlineError; 0 means
	// DefaultComputeTimeout, negative disables the deadline.
	ComputeTimeout time.Duration
	// Faults, when set, arms the SiteCompute injection point (the disk
	// store carries its own injector; see resultcache.SetFaults).
	Faults *faultinject.Injector
	// Traces, when set, is the tail-sampled trace retention store the
	// HTTP layer offers completed request traces to; nil means a
	// store with default policy.
	Traces *tracestore.Store
	// RateLimit, when positive, applies a per-client token-bucket
	// limit of this many requests per second to the /v1/ API (429 with
	// Retry-After beyond it). Batch requests draw one token per cell.
	RateLimit float64
	// RateBurst is the token-bucket capacity per client; 0 means
	// twice RateLimit (at least 1). Ignored when RateLimit is 0.
	RateBurst int
}

// call is one in-flight computation and the requests waiting on it.
type call struct {
	key     resultcache.Key
	done    chan struct{}
	entry   resultcache.Entry
	err     error
	refs    int // guarded by Server.mu
	maxRefs int // peak fan-in, guarded by Server.mu
	cancel  context.CancelFunc
}

// Server coalesces, admits, computes, and caches experiment requests.
type Server struct {
	workers        int
	maxQueue       int
	cache          *resultcache.Cache
	disk           *resultcache.DiskStore
	computeTimeout time.Duration // <= 0 means no per-request deadline
	faults         *faultinject.Injector
	peers          PeerSource   // nil outside fleet mode; set once before serving
	limiter        *RateLimiter // nil means unlimited

	sem       chan struct{}  // worker slots
	queued    atomic.Int64   // computations admitted or waiting
	computing sync.WaitGroup // live compute goroutines; Drain waits on it
	draining  atomic.Bool    // set once shutdown begins; /readyz turns 503

	// computeNs/computeCount accumulate successful computation wall
	// time, feeding RetryAfterHint's mean-compute estimate.
	computeNs    atomic.Int64
	computeCount atomic.Int64

	traces *tracestore.Store

	mu       sync.Mutex
	inflight map[resultcache.Key]*call

	// runFn executes one computation; tests swap it for a controlled
	// runner to exercise coalescing, backpressure, and cancellation
	// deterministically.
	runFn func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error)

	requests, coalesced, computations *obs.Counter
	rejections, diskHits, diskErrors  *obs.Counter
	deadlines, panics                 *obs.Counter
	queueGauge, runningGauge          *obs.Gauge
	inflightGauge                     *obs.Gauge
	latency                           *obs.Histogram
}

// latencyBuckets spans 1µs to 10s exponentially, shared by the
// overall and the per-experiment/per-cache-status latency histograms.
var latencyBuckets = obs.ExponentialBuckets(1e3, 10, 8)

// New returns a Server with the given options.
func New(opts Options) *Server {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	q := opts.QueueDepth
	if q <= 0 {
		q = 64
	}
	cb := opts.CacheBytes
	if cb <= 0 {
		cb = 256 << 20
	}
	ct := opts.ComputeTimeout
	if ct == 0 {
		ct = DefaultComputeTimeout
	}
	traces := opts.Traces
	if traces == nil {
		traces = tracestore.New(tracestore.Options{})
	}
	return &Server{
		workers:        w,
		maxQueue:       q,
		cache:          resultcache.New(cb),
		disk:           opts.Disk,
		computeTimeout: ct,
		faults:         opts.Faults,
		limiter:        NewRateLimiter(opts.RateLimit, opts.RateBurst),
		traces:         traces,
		sem:            make(chan struct{}, w),
		inflight:       make(map[resultcache.Key]*call),
		runFn: func(ctx context.Context, spec experiments.Spec, p experiments.Params) (*experiments.Output, error) {
			return spec.Run(ctx, p)
		},
		requests:      obs.GetCounter("serve.requests"),
		coalesced:     obs.GetCounter("serve.coalesced"),
		computations:  obs.GetCounter("serve.computations"),
		rejections:    obs.GetCounter("serve.rejections"),
		diskHits:      obs.GetCounter("serve.disk_hits"),
		diskErrors:    obs.GetCounter("serve.disk_errors"),
		deadlines:     obs.GetCounter("serve.deadline_exceeded"),
		panics:        obs.GetCounter("serve.panics"),
		queueGauge:    obs.GetGauge("serve.queue_depth"),
		runningGauge:  obs.GetGauge("serve.running"),
		inflightGauge: obs.GetGauge("serve.inflight_requests"),
		latency:       obs.GetHistogram("serve.latency_ns", latencyBuckets), // 1µs .. 10s
	}
}

// Workers returns the worker-pool size.
func (s *Server) Workers() int { return s.workers }

// QueueDepth returns the admission-queue bound.
func (s *Server) QueueDepth() int { return s.maxQueue }

// RetryAfterHint estimates how long an overloaded client should back
// off before the given backlog has drained: the number of worker waves
// the backlog represents times the observed mean computation time,
// clamped to [1s, 60s]. With no compute history yet (or an empty
// backlog) it returns the 1s floor — better to let the client probe
// again quickly than to guess from nothing.
func (s *Server) RetryAfterHint(depth int) time.Duration {
	count := s.computeCount.Load()
	if count == 0 || depth <= 0 {
		return time.Second
	}
	mean := time.Duration(s.computeNs.Load() / count)
	waves := (depth + s.workers - 1) / s.workers
	hint := time.Duration(waves) * mean
	if hint < time.Second {
		return time.Second
	}
	if hint > time.Minute {
		return time.Minute
	}
	return hint
}

// Cache returns the in-memory result cache (exposed for warmup and
// introspection). Its entries carry their encoded response Body; the
// server sets it on every entry it stores there.
func (s *Server) Cache() *resultcache.Cache { return s.cache }

// SetPeers installs the fleet view: misses check the owner and
// sibling replicas before computing, and the HTTP layer forwards
// requests owned elsewhere. Call it once, after construction and
// before serving; it is not safe to call concurrently with requests.
func (s *Server) SetPeers(p PeerSource) { s.peers = p }

// RequestKey derives the content address Do serves a request under;
// the fleet layer routes on it.
func RequestKey(experiment string, p experiments.Params) resultcache.Key {
	return resultcache.KeyFor(experiment, p.CanonicalKey(), experiments.ResultSchemaVersion)
}

// CachedEntry returns the finished entry stored under key in the
// memory cache or the disk store, promoting disk hits into memory
// like Do's lookup does. It never computes anything — it is the read
// path the fleet peer protocol serves /internal/v1/result from, so a
// peer asking for a result can never trigger a recursive computation.
// The peer protocol's routes are untraced, so an injected disk fault
// here is marked nowhere.
func (s *Server) CachedEntry(key resultcache.Key) (resultcache.Entry, bool) {
	e, src := s.lookupCached(nil, key)
	return e, src != ""
}

// lookupCached checks memory then disk for a finished entry,
// returning where it was found ("memory", "disk") or "" on a miss. A
// disk fault is marked under parent.
func (s *Server) lookupCached(parent *obs.Span, key resultcache.Key) (resultcache.Entry, string) {
	if entry, ok := s.cache.Get(key); ok {
		return entry, "memory"
	}
	if s.disk != nil {
		entry, ok, err := s.disk.Get(parent, key)
		if err == nil && ok {
			entry, err = withBody(entry)
		}
		if err != nil {
			s.diskErrors.Inc() // corrupt entry: treated as a miss
		} else if ok {
			s.diskHits.Inc()
			s.cache.Put(entry)
			return entry, "disk"
		}
	}
	return resultcache.Entry{}, ""
}

// SetDraining marks the server as draining: /readyz answers 503 so
// load balancers stop routing here before the listener closes.
// Requests already in flight (and Do itself) are unaffected.
func (s *Server) SetDraining() { s.draining.Store(true) }

// Draining reports whether SetDraining has run.
func (s *Server) Draining() bool { return s.draining.Load() }

// errClass buckets a Do error for the serve.errors counter family.
func errClass(err error) string {
	var overload *OverloadError
	var deadline *DeadlineError
	switch {
	case errors.Is(err, ErrUnknownExperiment):
		return "unknown_experiment"
	case errors.Is(err, ErrInvalidParams):
		return "invalid_params"
	case errors.As(err, &overload):
		return "overload"
	case errors.As(err, &deadline):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, faultinject.ErrInjected):
		return "injected"
	default:
		return "internal"
	}
}

// Do answers one experiment request. Identical concurrent requests
// share one computation; completed results are served from the cache
// byte-identically to the miss that produced them.
//
// Telemetry per request: the overall serve.latency_ns histogram, a
// per-experiment and per-cache-status serve.request_latency_ns series
// (cache label hit|miss|coalesced|error), a serve.errors counter per
// error class, and — when the context carries an obs.Trace — cache
// status and error-class annotations on the trace.
func (s *Server) Do(ctx context.Context, experiment string, p experiments.Params) (Response, error) {
	start := time.Now()
	s.requests.Inc()
	s.inflightGauge.Add(1)
	defer s.inflightGauge.Add(-1)
	tr := obs.TraceFrom(ctx)
	tr.Annotate("experiment", experiment)

	resp, err := s.do(ctx, tr, experiment, p)

	ns := float64(time.Since(start).Nanoseconds())
	s.latency.Observe(ns)
	cache := string(resp.Status)
	if err != nil {
		cache = "error"
		class := errClass(err)
		obs.GetCounter(obs.LabeledName("serve.errors", "class", class)).Inc()
		tr.Annotate("error_class", class)
	}
	tr.Annotate("cache", cache)
	obs.GetHistogram(obs.LabeledName("serve.request_latency_ns",
		"cache", cache, "experiment", experiment), latencyBuckets).Observe(ns)
	return resp, err
}

// do is Do's serving body; telemetry that applies to every outcome
// lives in the wrapper above.
func (s *Server) do(ctx context.Context, tr *obs.Trace, experiment string, p experiments.Params) (Response, error) {
	if s.computeTimeout > 0 {
		// The per-request deadline. WithTimeoutCause makes the
		// server-applied deadline distinguishable from the client's own
		// context ending: wait returns the DeadlineError cause, which
		// the HTTP layer maps to 504 rather than 499.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, s.computeTimeout,
			&DeadlineError{Timeout: s.computeTimeout})
		defer cancel()
	}
	spec, ok := experiments.Lookup(experiment)
	if !ok {
		return Response{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, experiment)
	}
	if err := spec.Validate(p); err != nil {
		return Response{}, fmt.Errorf("%w: %v", ErrInvalidParams, err)
	}
	key := RequestKey(experiment, p)

	lookup := tr.Root().Child("cache.lookup")
	if entry, src := s.lookupCached(lookup, key); src != "" {
		if src != "memory" {
			lookup.Annotate("source", src)
		}
		lookup.End()
		return Response{Status: StatusHit, Entry: entry}, nil
	}
	lookup.End()

	// Peer fill: before computing, ask the owner and sibling replicas
	// whether one of them already finished this result. Any peer
	// error, timeout, or miss falls through to the compute path below,
	// so a partitioned (or one-node) fleet degrades to exactly the
	// single-process behavior.
	if s.peers != nil {
		pspan := tr.Root().Child("peer.fetch")
		entry, ok := s.peers.Fetch(obs.ContextWithSpan(ctx, pspan), key)
		pspan.End()
		if ok {
			if entry, err := withBody(entry); err == nil {
				s.cache.Put(entry)
				return Response{Status: StatusPeer, Entry: entry}, nil
			}
		}
	}

	s.mu.Lock()
	if c, ok := s.inflight[key]; ok {
		c.refs++
		if c.refs > c.maxRefs {
			c.maxRefs = c.refs
		}
		fanIn := c.refs
		s.mu.Unlock()
		s.coalesced.Inc()
		tr.Annotate("coalesce_fanin", strconv.Itoa(fanIn))
		return s.wait(ctx, tr, c, StatusCoalesced)
	}
	// Recheck the cache before leading a fresh computation: one may
	// have completed between the miss above and taking the lock. Put
	// runs before the call is unpublished (both under mu in finish),
	// so a finished computation is either still joinable above or
	// already visible here — identical concurrent requests can never
	// compute twice.
	if entry, ok := s.cache.Get(key); ok {
		s.mu.Unlock()
		return Response{Status: StatusHit, Entry: entry}, nil
	}
	cctx, cancel := context.WithCancel(context.Background())
	c := &call{key: key, done: make(chan struct{}), refs: 1, maxRefs: 1, cancel: cancel}
	s.inflight[key] = c
	s.mu.Unlock()
	if d, ok := ctx.Deadline(); ok {
		tr.Annotate("deadline_remaining", time.Until(d).Round(time.Millisecond).String())
	}
	s.computing.Add(1)
	go func() {
		defer s.computing.Done()
		s.compute(cctx, c, spec, p, tr)
	}()
	return s.wait(ctx, tr, c, StatusMiss)
}

// wait blocks until the call completes or the request's own context
// ends, dropping the request's reference in the latter case. A
// server-applied compute deadline surfaces as its DeadlineError cause;
// other waiters of the same call are unaffected either way.
func (s *Server) wait(ctx context.Context, tr *obs.Trace, c *call, status Status) (Response, error) {
	span := tr.Root().Child("wait")
	span.Annotate("mode", string(status))
	defer span.End()
	select {
	case <-c.done:
		if c.err != nil {
			return Response{}, c.err
		}
		return Response{Status: status, Entry: c.entry}, nil
	case <-ctx.Done():
		s.abandon(c)
		var de *DeadlineError
		if cause := context.Cause(ctx); errors.As(cause, &de) {
			s.deadlines.Inc()
			return Response{}, cause
		}
		return Response{}, ctx.Err()
	}
}

// Drain blocks until every in-flight compute goroutine has finished
// (or ctx ends first). acdserverd calls it after http.Server.Shutdown
// so detached computations — still running for waiters that already
// got their answer or abandoned — finish their cache writes before the
// process exits.
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.computing.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// abandon drops one reference; the last reference cancels the
// computation and unpublishes the call so later requests start fresh.
func (s *Server) abandon(c *call) {
	s.mu.Lock()
	c.refs--
	last := c.refs == 0
	if last && s.inflight[c.key] == c {
		delete(s.inflight, c.key)
	}
	s.mu.Unlock()
	if last {
		c.cancel()
	}
}

// compute runs one admitted computation and broadcasts its outcome.
// tr is the trace of the request that led the computation (nil when
// untraced): the computation's compute span opens under its root and
// rides in the computation's context, so every phase the experiment
// code opens — the sweep, its cells' sampling and accumulation passes
// — lands in that request's span tree even though the computation
// itself is detached from the request context. If the leading request
// times out, the spans keep completing into the retained trace, which
// is exactly the trace worth reading.
func (s *Server) compute(ctx context.Context, c *call, spec experiments.Spec, p experiments.Params, tr *obs.Trace) {
	defer c.cancel()
	// Runs after the deferred slot release below: a panic fails the
	// call (uncached, every waiter answered) instead of the process.
	// Every finish call is the last statement of its path, so a panic
	// always arrives before the call is finished.
	defer func() {
		if v := recover(); v != nil {
			s.panics.Inc()
			stack := make([]byte, panicStackMax)
			stack = stack[:runtime.Stack(stack, false)]
			if w, ok := v.(*panics.Worker); ok {
				v, stack = w.Value, w.Stack[:min(len(w.Stack), panicStackMax)]
			}
			s.finish(c, resultcache.Entry{}, &PanicError{Value: v, Stack: stack})
		}
	}()
	var cspan *obs.Span // nil when untraced
	if tr != nil {
		cspan = tr.Root().Child("compute")
		defer cspan.End()
		defer func() {
			s.mu.Lock()
			fanIn := c.maxRefs
			s.mu.Unlock()
			cspan.Annotate("coalesce_fanin", strconv.Itoa(fanIn))
		}()
	}
	if p.Workers == 0 {
		// Split the machine across the server's compute slots so s.workers
		// concurrent sweeps don't each grab GOMAXPROCS goroutines.
		// Workers is excluded from the canonical key, so this never
		// affects cache identity.
		if w := runtime.GOMAXPROCS(0) / s.workers; w > 1 {
			p.Workers = w
		} else {
			p.Workers = 1
		}
	}
	depth := s.queued.Add(1)
	s.queueGauge.SetMax(float64(depth))
	if depth > int64(s.workers+s.maxQueue) {
		s.queued.Add(-1)
		s.rejections.Inc()
		s.finish(c, resultcache.Entry{}, &OverloadError{QueueDepth: int(depth - 1)})
		return
	}
	qspan := cspan.Child("queue.wait")
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		qspan.End()
		s.queued.Add(-1)
		s.finish(c, resultcache.Entry{}, ctx.Err())
		return
	}
	qspan.End()
	s.runningGauge.Add(1)
	defer func() {
		<-s.sem
		s.queued.Add(-1)
		s.runningGauge.Add(-1)
	}()

	s.computations.Inc()
	ctx = obs.ContextWithSpan(ctx, cspan)
	if err := s.faults.CheckCtx(ctx, SiteCompute); err != nil {
		s.finish(c, resultcache.Entry{}, err)
		return
	}
	before := obs.Default().Snapshot()
	start := time.Now()
	out, err := s.runFn(ctx, spec, p)
	wall := time.Since(start)
	if err != nil {
		s.finish(c, resultcache.Entry{}, err)
		return
	}
	s.computeNs.Add(int64(wall))
	s.computeCount.Add(1)
	entry, err := BuildEntry(c.key, spec.Name, out, wall, obs.Default().Snapshot().Sub(before))
	if err == nil {
		entry, err = withBody(entry)
	}
	if err != nil {
		s.finish(c, resultcache.Entry{}, err)
		return
	}
	s.cache.Put(entry)
	if s.disk != nil {
		if err := s.disk.Put(cspan, entry); err != nil {
			s.diskErrors.Inc()
		}
	}
	s.finish(c, entry, nil)
}

// finish publishes the call's outcome and wakes every waiter.
func (s *Server) finish(c *call, entry resultcache.Entry, err error) {
	s.mu.Lock()
	if s.inflight[c.key] == c {
		delete(s.inflight, c.key)
	}
	s.mu.Unlock()
	c.entry, c.err = entry, err
	close(c.done)
}

// BuildEntry marshals a computation's output and its run manifest into
// a cacheable entry. The manifest records the effective parameters,
// wall time, and the metric deltas the computation produced (best
// effort: under concurrent computations the deltas include the
// neighbors' work too, since the obs registry is process-wide).
// acdbench -cache uses it to warm the same store the daemon serves.
func BuildEntry(key resultcache.Key, name string, out *experiments.Output, wall time.Duration, delta obs.Snapshot) (resultcache.Entry, error) {
	paramsJSON, err := json.Marshal(out.Params)
	if err != nil {
		return resultcache.Entry{}, fmt.Errorf("serve: marshaling params: %w", err)
	}
	resultJSON, err := json.Marshal(out.Result)
	if err != nil {
		return resultcache.Entry{}, fmt.Errorf("serve: marshaling result: %w", err)
	}
	m := obs.NewManifest("serve")
	m.AddExperiment(name, out.Params, wall, nil)
	m.ObserveMemStats()
	m.Metrics = delta
	manifestJSON, err := json.Marshal(m)
	if err != nil {
		return resultcache.Entry{}, fmt.Errorf("serve: marshaling manifest: %w", err)
	}
	return resultcache.Entry{
		Key:        key,
		Experiment: name,
		Params:     paramsJSON,
		Result:     resultJSON,
		Manifest:   manifestJSON,
	}, nil
}
