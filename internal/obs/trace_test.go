package obs

import (
	"context"
	"strings"
	"testing"
	"time"
)

// findPhase walks a phase forest for a name at any depth.
func findPhase(spans []PhaseSnapshot, name string) *PhaseSnapshot {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if p := findPhase(spans[i].Children, name); p != nil {
			return p
		}
	}
	return nil
}

func TestTraceLifecycle(t *testing.T) {
	start := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	tr := NewTrace("abc123", "POST /v1/experiments/table12", start)
	if tr.ID() != "abc123" || tr.Name() != "POST /v1/experiments/table12" {
		t.Fatalf("identity = %q %q", tr.ID(), tr.Name())
	}
	if !tr.StartTime().Equal(start) {
		t.Errorf("start = %v", tr.StartTime())
	}
	if _, _, ok := tr.Finished(); ok {
		t.Fatal("fresh trace reports finished")
	}

	tr.Annotate("cache", "miss")
	tr.Annotate("cache", "hit") // last write wins
	tr.Annotate("experiment", "table12")

	sp := tr.Root().Child("cache.lookup")
	sp.End()

	live := tr.Snapshot(start.Add(50 * time.Millisecond))
	if live.Complete {
		t.Error("live snapshot marked complete")
	}
	if live.DurationNs != (50 * time.Millisecond).Nanoseconds() {
		t.Errorf("live duration = %d", live.DurationNs)
	}

	tr.Finish(200, start.Add(100*time.Millisecond))
	tr.Finish(500, start.Add(9*time.Hour)) // idempotent: first call wins
	status, d, ok := tr.Finished()
	if !ok || status != 200 || d != 100*time.Millisecond {
		t.Fatalf("Finished() = %d %v %v", status, d, ok)
	}

	snap := tr.Snapshot(start.Add(9 * time.Hour))
	if !snap.Complete || snap.Status != 200 {
		t.Errorf("snapshot complete/status = %v/%d", snap.Complete, snap.Status)
	}
	if snap.DurationNs != (100 * time.Millisecond).Nanoseconds() {
		t.Errorf("frozen duration = %d, want 100ms", snap.DurationNs)
	}
	if snap.Attrs["cache"] != "hit" || snap.Attrs["experiment"] != "table12" {
		t.Errorf("attrs = %v", snap.Attrs)
	}
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "request" {
		t.Fatalf("span tree root = %+v", snap.Spans)
	}
	if findPhase(snap.Spans, "cache.lookup") == nil {
		t.Error("cache.lookup span missing from tree")
	}
}

func TestNilTraceIsSafe(t *testing.T) {
	var tr *Trace
	if tr.ID() != "" || tr.Name() != "" || tr.Root() != nil || tr.Attrs() != nil {
		t.Error("nil trace accessors returned non-zero values")
	}
	tr.Annotate("k", "v")
	tr.Finish(200, time.Now())
	if _, _, ok := tr.Finished(); ok {
		t.Error("nil trace reports finished")
	}
	sp := tr.Root().Child("x") // nil span: End/Annotate no-op
	sp.Annotate("k", "v")
	sp.End()
	if s := tr.Snapshot(time.Now()); s.ID != "" {
		t.Errorf("nil snapshot = %+v", s)
	}
}

func TestTraceContext(t *testing.T) {
	tr := NewTrace("id1", "GET /", time.Now())
	ctx := ContextWithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Error("TraceFrom did not return the stored trace")
	}
	if TraceFrom(context.Background()) != nil {
		t.Error("TraceFrom on an empty context is not nil")
	}
}

// TestAttachRoutesPackageStartSpan pins the load-bearing wiring: a
// goroutine attached to a span of a request-scoped trace has its
// package-level StartSpan calls land in that trace, not in the default
// tracer, and detach restores default routing.
func TestAttachRoutesPackageStartSpan(t *testing.T) {
	tr := NewTrace("bind1", "POST /x", time.Now())
	const inside, after = "phase.inside.binding", "phase.after.detach"
	done := make(chan struct{})
	go func() {
		defer close(done)
		detach := tr.Root().Attach()
		sp := StartSpan(inside)
		sp.End()
		detach()
		sp = StartSpan(after)
		sp.End()
	}()
	<-done

	snap := tr.Snapshot(time.Now())
	in := findPhase(snap.Spans, inside)
	if in == nil {
		t.Fatalf("bound StartSpan did not land in the trace: %+v", snap.Spans)
	}
	if in.Calls != 1 {
		t.Errorf("bound phase calls = %d", in.Calls)
	}
	if findPhase(snap.Spans, after) != nil {
		t.Error("StartSpan after detach still landed in the trace")
	}
	if findPhase(defaultTracer.Snapshot(), inside) != nil {
		t.Error("bound StartSpan also landed in the default tracer")
	}
	if findPhase(defaultTracer.Snapshot(), after) == nil {
		t.Error("StartSpan after detach did not return to the default tracer")
	}
}

// TestAttachNesting: workers attached to a mid-tree span of a bound
// tracer nest their package-level phases under that span (the sweep
// pattern, one level deeper than the root).
func TestAttachNesting(t *testing.T) {
	tr := NewTrace("bind2", "POST /x", time.Now())
	done := make(chan struct{})
	go func() {
		defer close(done)
		detach := tr.Root().Attach()
		defer detach()
		sweep := StartSpan("sweep")
		inner := make(chan struct{})
		go func() {
			defer close(inner)
			d := sweep.Attach()
			defer d()
			StartSpan("cell.work").End()
			StartSpan("cell.work").End()
		}()
		<-inner
		sweep.End()
	}()
	<-done

	snap := tr.Snapshot(time.Now())
	sweep := findPhase(snap.Spans, "sweep")
	if sweep == nil {
		t.Fatalf("sweep span missing: %+v", snap.Spans)
	}
	work := findPhase(sweep.Children, "cell.work")
	if work == nil || work.Calls != 2 {
		t.Fatalf("cell.work under sweep = %+v, want 2 merged calls", work)
	}
}

func TestMarkActive(t *testing.T) {
	// Unbound goroutine: no-op, nothing lands anywhere new.
	MarkActive("mark.unbound")
	if findPhase(defaultTracer.Snapshot(), "mark.unbound") != nil {
		t.Error("unbound MarkActive recorded a phase")
	}

	tr := NewTrace("mark1", "POST /x", time.Now())
	done := make(chan struct{})
	go func() {
		defer close(done)
		detach := tr.Root().Attach()
		defer detach()
		sp := StartSpan("compute")
		MarkActive("fault.serve.compute")
		MarkActive("fault.serve.compute")
		sp.End()
	}()
	<-done

	snap := tr.Snapshot(time.Now())
	compute := findPhase(snap.Spans, "compute")
	if compute == nil {
		t.Fatal("compute span missing")
	}
	mark := findPhase(compute.Children, "fault.serve.compute")
	if mark == nil {
		t.Fatal("MarkActive did not record under the open span")
	}
	if mark.Calls != 2 || mark.Ns != 0 {
		t.Errorf("mark calls/ns = %d/%d, want 2/0", mark.Calls, mark.Ns)
	}
}

func TestSpanAnnotate(t *testing.T) {
	tr := NewTrace("ann1", "POST /x", time.Now())
	sp := tr.Root().Child("sweep")
	sp.Annotate("cells", "64")
	sp.Annotate("cells", "128") // last write wins on merged phases
	sp.Annotate("workers", "4")
	sp.End()

	snap := tr.Snapshot(time.Now())
	sweep := findPhase(snap.Spans, "sweep")
	if sweep == nil {
		t.Fatal("sweep missing")
	}
	if sweep.Attrs["cells"] != "128" || sweep.Attrs["workers"] != "4" {
		t.Errorf("attrs = %v", sweep.Attrs)
	}
}

// TestChildMovesNoCursor: a child opened under the root of a trace
// leaves the attached goroutine's cursor on the root, so package-level
// spans and marks made while it is open nest under the root beside it.
func TestChildMovesNoCursor(t *testing.T) {
	tr := NewTrace("child1", "POST /x", time.Now())
	done := make(chan struct{})
	go func() {
		defer close(done)
		detach := tr.Root().Attach()
		defer detach()
		lookup := tr.Root().Child("cache.lookup")
		StartSpan("disk.read").End()
		MarkActive("fault.resultcache.disk.get")
		lookup.End()
	}()
	<-done

	snap := tr.Snapshot(time.Now())
	if len(snap.Spans) != 1 || snap.Spans[0].Name != "request" {
		t.Fatalf("span tree root = %+v", snap.Spans)
	}
	var names []string
	for _, c := range snap.Spans[0].Children {
		names = append(names, c.Name)
		if len(c.Children) != 0 {
			t.Errorf("%s has children %+v; nothing nests under a child", c.Name, c.Children)
		}
	}
	if want := "cache.lookup disk.read fault.resultcache.disk.get"; strings.Join(names, " ") != want {
		t.Errorf("request children = %v, want %s", names, want)
	}
}
