package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer builds a hierarchical wall-clock phase tree. Unlike a
// distributed-tracing span store, same-named phases under the same
// parent are merged: starting "sampling" fifteen times under one
// experiment yields a single node with Calls == 15 and the summed
// duration. That keeps run manifests compact and structurally
// deterministic for seeded runs even when call counts are large.
//
// Start/End follow stack (LIFO) discipline per goroutine. A single
// goroutine needs no setup. Worker goroutines that want their phases
// to nest under a specific span (rather than wherever the owning
// goroutine happens to be) call Span.Attach first: each attached
// goroutine then keeps its own cursor into the tree, and because
// same-named phases merge, any interleaving of attached workers folds
// into the same deterministic tree. Unattached concurrent use remains
// memory-safe but nests unpredictably.
type Tracer struct {
	mu      sync.Mutex
	gen     uint64
	root    *phase
	current *phase
	// scopes maps attached goroutine ids to their private cursor.
	// Empty (the common serial case) means Start never pays for a
	// goroutine-id lookup.
	scopes map[uint64]*scope
}

// scope is the per-goroutine cursor of an attached worker.
type scope struct {
	current *phase
}

// phase is one node of the live tree.
type phase struct {
	name     string
	calls    uint64
	ns       int64
	parent   *phase
	children []*phase
	index    map[string]*phase
	// attrs are key=value annotations set through Span.Annotate; on
	// merged phases the last write per key wins.
	attrs map[string]string
}

func (p *phase) child(name string) *phase {
	if c, ok := p.index[name]; ok {
		return c
	}
	c := &phase{name: name, parent: p}
	if p.index == nil {
		p.index = make(map[string]*phase)
	}
	p.index[name] = c
	p.children = append(p.children, c)
	return c
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	root := &phase{}
	return &Tracer{root: root, current: root}
}

var defaultTracer = NewTracer()

// Span is an in-progress timing of one phase activation. End it
// exactly once (End is idempotent; extra calls are no-ops).
type Span struct {
	t    *Tracer
	node *phase
	// cursor is the cursor Start moved onto node (the tracer-wide one
	// or an attached goroutine's), which End moves back to prev; nil
	// for a span opened by Child, which moves none.
	cursor **phase
	prev   *phase
	gen    uint64
	start  time.Time
	done   bool
}

// Start opens (or re-enters) the named phase as a child of the
// currently open phase and makes it current. On a goroutine bound by
// Span.Attach, "currently open" is that goroutine's own cursor.
func (t *Tracer) Start(name string) *Span {
	var id uint64
	if t.hasScopes() {
		id = goid() // taken outside the lock: runtime.Stack is not free
	}
	return t.startID(name, id)
}

// startID is Start with the goroutine id (0 when unknown or
// irrelevant) already resolved, so callers that looked it up for
// binding dispatch do not pay for a second runtime.Stack.
func (t *Tracer) startID(name string, id uint64) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	cursor := &t.current
	if id != 0 {
		if sc, ok := t.scopes[id]; ok {
			cursor = &sc.current
		}
	}
	prev := *cursor
	node := prev.child(name)
	node.calls++
	*cursor = node
	return &Span{t: t, node: node, cursor: cursor, prev: prev, gen: t.gen, start: time.Now()}
}

// Child opens (or re-enters) the named phase directly under s's phase
// and returns its span. Unlike Start it neither reads nor moves any
// cursor, so it costs no goroutine lookup: phases and marks that other
// code opens while the child is open still nest under the opening
// goroutine's cursor, not under the child. It suits a phase whose
// parent the caller holds — the serving layer's cache lookup, peer
// fetch and waits under a request's root span. Child on a nil span
// returns nil, and a child of a span that outlived a Take/Reset is
// inert: it records nothing.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &Span{t: t, node: s.node, gen: s.gen, start: time.Now()}
	if t.gen == s.gen { // else s's tree was already collected
		c.node = s.node.child(name)
		c.node.calls++
	}
	return c
}

func (t *Tracer) hasScopes() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.scopes) > 0
}

// Attach binds the calling goroutine to this span: until the returned
// detach function runs, Start calls made from this goroutine nest
// under the span's phase through a private cursor instead of the
// tracer-wide one. This is how sweep workers report their phases —
// every worker attaches to the shared "sweep" span, and merged-by-name
// children make the resulting tree independent of worker count and
// scheduling. Call detach from the same goroutine when it is done.
//
// Attaching to a span of a non-default tracer additionally binds the
// goroutine's package-level StartSpan and MarkActive calls to that
// tracer (see StartSpan), which is how a request-scoped trace captures
// the phases of library code that only knows the package-level API.
// Detach restores whatever binding and cursor were in effect before.
func (s *Span) Attach() (detach func()) {
	t := s.t
	id := goid()
	t.mu.Lock()
	gen := t.gen
	if t.scopes == nil {
		t.scopes = make(map[uint64]*scope)
	}
	prevScope, hadScope := t.scopes[id]
	t.scopes[id] = &scope{current: s.node}
	t.mu.Unlock()
	var prevBind *Tracer
	bound := t != defaultTracer
	if bound {
		prevBind = bindGoroutine(id, t)
	}
	return func() {
		t.mu.Lock()
		if t.gen == gen { // a Take since Attach already discarded the scopes
			if hadScope {
				t.scopes[id] = prevScope
			} else {
				delete(t.scopes, id)
			}
		}
		t.mu.Unlock()
		if bound {
			unbindGoroutine(id, prevBind)
		}
	}
}

// Goroutine-to-tracer bindings let package-level StartSpan route to a
// request-scoped tracer. The count is checked with one atomic load on
// the (overwhelmingly common) unbound fast path, so instrumented
// library code pays nothing extra when no request traces are live.
var (
	bindCount atomic.Int64
	bindMu    sync.Mutex
	bindings  map[uint64]*Tracer
)

// bindGoroutine binds the goroutine to t, returning the previous
// binding (nil if none) for the caller to restore on detach.
func bindGoroutine(id uint64, t *Tracer) (prev *Tracer) {
	bindMu.Lock()
	defer bindMu.Unlock()
	if bindings == nil {
		bindings = make(map[uint64]*Tracer)
	}
	prev = bindings[id]
	bindings[id] = t
	if prev == nil {
		bindCount.Add(1)
	}
	return prev
}

// unbindGoroutine restores the goroutine's previous binding.
func unbindGoroutine(id uint64, prev *Tracer) {
	bindMu.Lock()
	defer bindMu.Unlock()
	if prev != nil {
		bindings[id] = prev
		return
	}
	delete(bindings, id)
	bindCount.Add(-1)
}

// boundTracer returns the tracer the goroutine is bound to, or nil.
func boundTracer(id uint64) *Tracer {
	bindMu.Lock()
	defer bindMu.Unlock()
	return bindings[id]
}

// Annotate sets a key=value attribute on the span's phase node. On
// merged phases the last write per key wins; annotating a span that
// outlived a Take/Reset is a safe no-op.
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen != s.gen {
		return
	}
	if s.node.attrs == nil {
		s.node.attrs = make(map[string]string)
	}
	s.node.attrs[key] = value
}

// MarkActive records one zero-duration activation of the named phase
// under the calling goroutine's bound cursor: the phase's call count
// increments but no wall time is attributed. It is a no-op on an
// unbound goroutine (one atomic load), so low-level packages — fault
// injection, cache stores — can mark events unconditionally and the
// marks appear only in request-scoped traces.
func MarkActive(name string) {
	if bindCount.Load() == 0 {
		return
	}
	id := goid()
	if id == 0 {
		return
	}
	t := boundTracer(id)
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.current
	if sc, ok := t.scopes[id]; ok {
		cur = sc.current
	}
	cur.child(name).calls++
}

// goid returns the runtime id of the calling goroutine, parsed from
// the first stack-trace line ("goroutine N [running]:"). There is no
// exported API for this; the format has been stable since Go 1.4 and
// the parse is defensive (returns 0, never panics, on mismatch).
func goid() uint64 {
	var buf [40]byte
	n := runtime.Stack(buf[:], false)
	const prefix = "goroutine "
	if n <= len(prefix) || string(buf[:len(prefix)]) != prefix {
		return 0
	}
	var id uint64
	for _, c := range buf[len(prefix):n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
}

// End closes the span, folding its elapsed wall time into the phase
// node and, for a span opened by Start, restoring the parent as
// current. Ending a span that outlived a Take/Reset is a safe no-op.
func (s *Span) End() {
	if s == nil || s.done {
		return
	}
	s.done = true
	elapsed := time.Since(s.start)
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen != s.gen {
		return // the tree this span belongs to was already collected
	}
	s.node.ns += int64(elapsed)
	if s.cursor != nil {
		*s.cursor = s.prev
	}
}

// PhaseSnapshot is one node of a collected phase tree.
type PhaseSnapshot struct {
	// Name is the phase name passed to Start.
	Name string `json:"name"`
	// Calls is how many times the phase was entered.
	Calls uint64 `json:"calls"`
	// Ns is the summed wall-clock time of completed activations.
	Ns int64 `json:"ns"`
	// Attrs are the key=value annotations set through Span.Annotate.
	Attrs map[string]string `json:"attrs,omitempty"`
	// Children are nested phases in first-entered order.
	Children []PhaseSnapshot `json:"children,omitempty"`
}

func snapshotPhase(p *phase) PhaseSnapshot {
	s := PhaseSnapshot{Name: p.name, Calls: p.calls, Ns: p.ns}
	if len(p.attrs) > 0 {
		s.Attrs = make(map[string]string, len(p.attrs))
		for k, v := range p.attrs {
			s.Attrs[k] = v
		}
	}
	for _, c := range p.children {
		s.Children = append(s.Children, snapshotPhase(c))
	}
	return s
}

// Snapshot copies the current phase tree (top-level phases) without
// clearing it.
func (t *Tracer) Snapshot() []PhaseSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	return snapshotPhase(t.root).Children
}

// Take returns the current phase tree and resets the tracer to empty.
// Spans still open when Take is called are abandoned: their phases
// keep the call count, but the in-flight duration is dropped.
func (t *Tracer) Take() []PhaseSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := snapshotPhase(t.root).Children
	t.root = &phase{}
	t.current = t.root
	t.scopes = nil // attached cursors pointed into the collected tree
	t.gen++
	return out
}

// StartSpan opens a phase on the default tracer — unless the calling
// goroutine is bound to a request-scoped tracer through Span.Attach,
// in which case the phase opens there instead. The bound check is one
// atomic load when no bindings exist, so batch runs (acdbench) pay
// nothing for the serving path's request tracing.
func StartSpan(name string) *Span {
	if bindCount.Load() > 0 {
		if id := goid(); id != 0 {
			if t := boundTracer(id); t != nil {
				return t.startID(name, id)
			}
		}
	}
	return defaultTracer.Start(name)
}

// TakeSpans collects and clears the default tracer's phase tree.
func TakeSpans() []PhaseSnapshot { return defaultTracer.Take() }

// StartTimer returns a stop function that, when called, observes the
// elapsed nanoseconds into the histogram.
func StartTimer(h *Histogram) func() {
	start := time.Now()
	return func() { h.Observe(float64(time.Since(start).Nanoseconds())) }
}
