package obs

import (
	"sync"
	"time"
)

// Tracer builds a hierarchical wall-clock phase tree. Unlike a
// distributed-tracing span store, same-named phases under the same
// parent are merged: opening "sampling" fifteen times under one
// experiment yields a single node with Calls == 15 and the summed
// duration. That keeps run manifests compact and structurally
// deterministic for seeded runs even when call counts are large.
//
// Every phase opens under an explicit parent (Span.Child); the tracer
// keeps no cursor and does not know which goroutine calls it. Because
// same-named children merge, workers that open phases under one
// shared parent in any interleaving fold into the same deterministic
// tree. Root is the parent of the top-level phases.
type Tracer struct {
	mu   sync.Mutex
	gen  uint64
	root *phase
}

// phase is one node of the live tree.
type phase struct {
	name     string
	calls    uint64
	ns       int64
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
	c := &phase{name: name}
	if p.index == nil {
		p.index = make(map[string]*phase)
	}
	p.index[name] = c
	p.children = append(p.children, c)
	return c
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer {
	return &Tracer{root: &phase{}}
}

// Span is an in-progress timing of one phase activation. End it
// exactly once (End is idempotent; extra calls are no-ops). Every
// method is safe on a nil *Span, which records nothing: a library call
// made without a parent pays only the nil checks.
type Span struct {
	t     *Tracer
	node  *phase
	gen   uint64
	start time.Time
	done  bool
}

// Root returns the parent of the tracer's top-level phases: a child of
// it is a phase Snapshot and Take list at the top. The root itself is
// never reported, and it belongs to the tree it was taken from, so a
// Root taken before a Take is inert afterwards.
func (t *Tracer) Root() *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Span{t: t, node: t.root, gen: t.gen, start: time.Now()}
}

// Child opens (or re-enters) the named phase directly under s's phase
// and returns its span. It costs one lookup under the tracer's lock.
// Child on a nil span returns nil, and a child of a span that outlived
// a Take is inert: it records nothing.
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

// Mark records one zero-duration activation of the named phase under
// s: the phase's call count increments but no wall time is attributed.
// Low-level code that only learns of an event (an injected fault) marks
// it on the span of the phase it happened in. Marking a nil span or one
// that outlived a Take is a no-op.
func (s *Span) Mark(name string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.gen == s.gen {
		s.node.child(name).calls++
	}
}

// Annotate sets a key=value attribute on the span's phase node. On
// merged phases the last write per key wins; annotating a span that
// outlived a Take is a safe no-op.
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

// End closes the span, folding its elapsed wall time into the phase
// node. Ending a span that outlived a Take is a safe no-op.
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
}

// PhaseSnapshot is one node of a collected phase tree.
type PhaseSnapshot struct {
	// Name is the phase name passed to Child.
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
	t.gen++
	return out
}

// StartTimer returns a stop function that, when called, observes the
// elapsed nanoseconds into the histogram.
func StartTimer(h *Histogram) func() {
	start := time.Now()
	return func() { h.Observe(float64(time.Since(start).Nanoseconds())) }
}
