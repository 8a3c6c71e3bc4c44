package obs

import (
	"context"
	"sync"
	"time"
)

// Trace is one request-scoped span tree. Unlike the process-wide
// default tracer (whose merged tree feeds run manifests), every trace
// owns a private Tracer, so concurrent requests never share cursors
// and a request's phases — cache lookup, queue wait, compute, the
// sweep cells under it — attribute to exactly one trace.
//
// The wiring is Span.Attach: the HTTP layer attaches the handler
// goroutine to the trace's root span, the serving layer attaches the
// compute goroutine, and sweep workers attach to the sweep span they
// are handed — from there, every package-level StartSpan call made on
// those goroutines lands in this trace (see StartSpan). Library code
// needs no knowledge of traces.
//
// The serving layer's own phases (cache.lookup, peer.fetch, wait,
// queue.wait) open with Span.Child under the span that is their
// parent — the root, or the compute span — and move no goroutine's
// cursor. Marks and spans opened by the code such a phase runs nest
// under the goroutine's cursor instead: a disk-fault mark raised
// during cache.lookup lands under request, beside cache.lookup.
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
	tr.root = t.Start("request")
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

// Root returns the root span, the attachment point for goroutines
// that work on this request and the parent its phases open under with
// Child. Nil for a nil trace (Child on a nil span returns nil; Attach
// on one would panic, so callers guard with `if tr != nil`).
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
