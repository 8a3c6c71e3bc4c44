// Package obs is the repository's stdlib-only observability layer:
// named counters, gauges, fixed-bucket histograms, and hierarchical
// wall-clock phase spans, collected in thread-safe registries and
// exportable as JSON run manifests (manifest.go).
//
// Design constraints, in order:
//
//  1. Hot-path safety. The instrumented pipeline evaluates tens of
//     millions of topology distance queries per run; any per-event
//     work must be a handful of nanoseconds. Counters are striped
//     across cache-line-padded atomic cells so concurrent workers do
//     not serialize on one line, and the very hottest loops tally
//     locally and flush in bulk (see internal/topology and
//     internal/fmmmodel).
//  2. Determinism where possible. Counter values derived from seeded
//     experiments replay exactly; wall-clock quantities (spans,
//     histograms of durations) are isolated so manifests can be
//     canonicalized for golden-file comparison (Manifest.Deterministic).
//  3. No dependencies. Only the Go standard library; every other
//     internal package may import obs, obs imports none of them.
//
// Every span opens under an explicit parent (Span.Child); no tracer
// knows which goroutine calls it. The parent of an experiment's phases
// comes from whoever runs it: acdbench roots each experiment in a fresh
// Tracer, and the serving layer opens the computation's compute span in
// the request's Trace. Either puts that span into the context it passes
// to the registry runner (ContextWithSpan), whose sweep reads it
// (SpanFrom) and hands the sweep span down to the library phases as an
// argument or inside the options or state they receive. A
// library call made without a parent records nothing and allocates
// nothing. An event with no duration, such as an injected fault, is a
// mark (Span.Mark) on the span of the phase it happened in.
package obs

import (
	"sync"
	"sync/atomic"
)

// counterStripes is the number of independent atomic cells a counter
// is split over. Must be a power of two.
const counterStripes = 16

// stripe is one cache-line-padded atomic cell.
type stripe struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes so stripes never share a line
}

// Counter is a monotonically increasing metric, safe for concurrent
// use. Increments land on one of several cache-line-padded stripes;
// Value folds them. Concurrent writers should spread themselves with
// IncAt using any cheap caller-local hint (a rank, a worker index);
// single-goroutine callers can use Add/Inc.
type Counter struct {
	stripes [counterStripes]stripe
}

// Inc adds 1 on stripe 0.
func (c *Counter) Inc() { c.stripes[0].v.Add(1) }

// Add adds n on stripe 0.
func (c *Counter) Add(n uint64) { c.stripes[0].v.Add(n) }

// IncAt adds 1 on the stripe selected by hint.
func (c *Counter) IncAt(hint int) { c.stripes[uint(hint)&(counterStripes-1)].v.Add(1) }

// Value returns the sum over all stripes.
func (c *Counter) Value() uint64 {
	var total uint64
	for i := range c.stripes {
		total += c.stripes[i].v.Load()
	}
	return total
}

func (c *Counter) reset() {
	for i := range c.stripes {
		c.stripes[i].v.Store(0)
	}
}

// Gauge is a last-value metric holding a float64, safe for concurrent
// use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// SetMax stores v if it exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	for {
		old := g.bits.Load()
		if v <= floatFrom(old) {
			return
		}
		if g.bits.CompareAndSwap(old, floatBits(v)) {
			return
		}
	}
}

// Add increments the gauge by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, floatBits(floatFrom(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return floatFrom(g.bits.Load()) }

func (g *Gauge) reset() { g.bits.Store(0) }

// Registry is a thread-safe collection of named metrics. Metrics are
// created on first use and live for the registry's lifetime; looking a
// name up again returns the same instance. Counter, gauge, and
// histogram names are independent namespaces, but sharing a name
// across kinds is discouraged (snapshots would collide visually).
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// hookMu serializes snapshot hooks; separate from mu because hooks
	// call back into the registry (GetCounter etc.).
	hookMu sync.Mutex
	hooks  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry that package-level helpers
// operate on.
func Default() *Registry { return defaultRegistry }

// GetCounter returns the registry's counter with the given name,
// creating it if needed.
func (r *Registry) GetCounter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// GetGauge returns the registry's gauge with the given name, creating
// it if needed.
func (r *Registry) GetGauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GetHistogram returns the registry's histogram with the given name,
// creating it with the given bucket upper bounds if needed. An
// existing histogram keeps its original buckets.
func (r *Registry) GetHistogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time copy of a registry's metric values.
// All maps marshal with sorted keys (encoding/json), so the JSON form
// is byte-stable for equal values.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// OnSnapshot registers a hook that runs at the start of every
// Snapshot call, before values are read. Hooks fold derived metrics —
// rollups too hot to maintain per-event — into ordinary counters and
// gauges (e.g. internal/sfc sums its per-curve encode counters into
// "sfc.encode" here, keeping the curve hot path at one atomic add).
func (r *Registry) OnSnapshot(fn func()) {
	r.hookMu.Lock()
	defer r.hookMu.Unlock()
	r.hooks = append(r.hooks, fn)
}

// Snapshot copies every metric's current value.
func (r *Registry) Snapshot() Snapshot {
	r.hookMu.Lock()
	for _, fn := range r.hooks {
		fn()
	}
	r.hookMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]uint64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			s.Histograms[name] = h.Snapshot()
		}
	}
	return s
}

// Reset zeroes every metric in place. Metric instances stay valid:
// packages holding a *Counter keep incrementing the same cells.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// GetCounter returns (creating if needed) a counter in the default
// registry.
func GetCounter(name string) *Counter { return defaultRegistry.GetCounter(name) }

// GetGauge returns (creating if needed) a gauge in the default
// registry.
func GetGauge(name string) *Gauge { return defaultRegistry.GetGauge(name) }

// GetHistogram returns (creating if needed) a histogram in the default
// registry.
func GetHistogram(name string, bounds []float64) *Histogram {
	return defaultRegistry.GetHistogram(name, bounds)
}
