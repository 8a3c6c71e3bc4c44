package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one request-scoped span tree. Every trace owns a private
// Tracer, so concurrent requests never share a tree and a request's
// phases — cache lookup, queue wait, compute, the sweep cells under it —
// attribute to exactly one trace.
//
// Every phase opens under an explicit parent with Span.Child. The
// serving layer opens cache.lookup, peer.fetch and wait under the root,
// and queue.wait under its compute span, which it also puts into the
// computation's context (ContextWithSpan). The registry runner and its
// sweep read that parent from the context and hand it down, as an
// argument or inside the options or state a library call receives, to
// every phase of the experiment. A library call made
// without a parent records nothing. A fault mark lands under the span
// of the phase that raised it: a disk-fault mark under cache.lookup or
// compute, a peer-fault mark under peer.fetch, the compute fault under
// compute.
//
// All methods are safe on a nil *Trace (they no-op or return zero
// values), so instrumented code can call them unconditionally.
type Trace struct {
	id    string
	name  string
	start time.Time

	tracer *Tracer
	root   *Span

	mu       sync.Mutex
	attrs    map[string]string
	status   int
	finished bool
	duration time.Duration
}

// NewTrace returns a live trace rooted at a span named "request".
// The id is caller-provided (honored from an X-Trace-Id header or
// drawn from a deterministic source); start stamps the trace's origin
// under whatever clock the caller uses.
func NewTrace(id, name string, start time.Time) *Trace {
	t := NewTracer()
	tr := &Trace{id: id, name: name, start: start, tracer: t}
	tr.root = t.Root().Child("request")
	return tr
}

// ID returns the trace id.
func (tr *Trace) ID() string {
	if tr == nil {
		return ""
	}
	return tr.id
}

// Name returns the request name the trace was created with
// (conventionally "METHOD /path").
func (tr *Trace) Name() string {
	if tr == nil {
		return ""
	}
	return tr.name
}

// StartTime returns the trace's origin timestamp.
func (tr *Trace) StartTime() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return tr.start
}

// Root returns the root span, the parent the request's own phases open
// under with Child. Nil for a nil trace; Child on a nil span returns
// nil.
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Annotate sets a trace-level key=value attribute (cache status,
// error class, coalesce fan-in, ...). Last write per key wins.
func (tr *Trace) Annotate(key, value string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if tr.attrs == nil {
		tr.attrs = make(map[string]string)
	}
	tr.attrs[key] = value
}

// Attrs returns a copy of the trace-level attributes.
func (tr *Trace) Attrs() map[string]string {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.attrs) == 0 {
		return nil
	}
	out := make(map[string]string, len(tr.attrs))
	for k, v := range tr.attrs {
		out[k] = v
	}
	return out
}

// Finish ends the root span and freezes the trace's status and
// duration (now minus the start time). Spans opened by goroutines
// that outlive the request — a detached computation whose waiter
// timed out — may still End after Finish; they keep folding into the
// tree and show up when the trace is next rendered. Finish is
// idempotent: the first call wins.
func (tr *Trace) Finish(status int, now time.Time) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	if !tr.finished {
		tr.finished = true
		tr.status = status
		tr.duration = now.Sub(tr.start)
	}
	tr.mu.Unlock()
	tr.root.End()
}

// Finished reports whether Finish ran, and if so the status and
// duration it recorded.
func (tr *Trace) Finished() (status int, d time.Duration, ok bool) {
	if tr == nil {
		return 0, 0, false
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.status, tr.duration, tr.finished
}

// TraceSnapshot is the JSON rendering of one trace.
type TraceSnapshot struct {
	// ID is the trace id (the X-Trace-Id of the request).
	ID string `json:"id"`
	// Name is the request name ("METHOD /path").
	Name string `json:"name"`
	// Start is the trace origin in RFC 3339 with nanoseconds.
	Start string `json:"start"`
	// Status is the HTTP status recorded at Finish (0 while live).
	Status int `json:"status,omitempty"`
	// DurationNs is the frozen request duration, or time elapsed so
	// far for a trace still in flight.
	DurationNs int64 `json:"duration_ns"`
	// Complete is false while the request is still being served.
	Complete bool `json:"complete"`
	// Attrs are the trace-level annotations.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Spans is the span tree; the single top-level node is "request".
	Spans []PhaseSnapshot `json:"spans,omitempty"`
}

// Snapshot renders the trace's current state; now supplies the elapsed
// time for traces that have not finished. Safe to call at any point —
// spans still open appear with their call counts and the durations of
// completed activations.
func (tr *Trace) Snapshot(now time.Time) TraceSnapshot {
	if tr == nil {
		return TraceSnapshot{}
	}
	tr.mu.Lock()
	s := TraceSnapshot{
		ID:         tr.id,
		Name:       tr.name,
		Start:      tr.start.UTC().Format(time.RFC3339Nano),
		Status:     tr.status,
		Complete:   tr.finished,
		DurationNs: tr.duration.Nanoseconds(),
	}
	if !tr.finished {
		s.DurationNs = now.Sub(tr.start).Nanoseconds()
	}
	if len(tr.attrs) > 0 {
		s.Attrs = make(map[string]string, len(tr.attrs))
		for k, v := range tr.attrs {
			s.Attrs[k] = v
		}
	}
	tr.mu.Unlock()
	s.Spans = tr.tracer.Snapshot()
	return s
}

// traceCtxKey keys the active trace in a context.
type traceCtxKey struct{}

// ContextWithTrace returns ctx carrying tr.
func ContextWithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceCtxKey{}, tr)
}

// TraceFrom returns the trace carried by ctx, or nil.
func TraceFrom(ctx context.Context) *Trace {
	tr, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return tr
}

// spanCtxKey keys the parent span in a context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the parent of the phases
// opened by the code ctx is passed to (a registry runner, its sweep).
// A nil sp returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFrom returns the span ctx carries, or nil: phases opened under
// it then record nothing.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}
