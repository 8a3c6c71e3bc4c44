package obs

import (
	"context"
	"sort"
	"strings"
	"sync"
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

// TestContextCarriesSpan: the parent a caller puts into a context is
// the one the callee's phases open under, in the caller's trace; a
// context without one yields a nil parent, under which nothing records.
func TestContextCarriesSpan(t *testing.T) {
	tr := NewTrace("ctx1", "POST /x", time.Now())
	compute := tr.Root().Child("compute")
	ctx := ContextWithSpan(context.Background(), compute)
	if SpanFrom(ctx) != compute {
		t.Fatal("SpanFrom did not return the stored span")
	}
	SpanFrom(ctx).Child("sweep").End()
	compute.End()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Error("ContextWithSpan with a nil span changed the context")
	}

	bare := SpanFrom(context.Background())
	if bare != nil {
		t.Fatalf("SpanFrom on an empty context = %+v, want nil", bare)
	}
	bare.Child("lost").End()

	snap := tr.Snapshot(time.Now())
	if got, want := shape(snap.Spans), "request(compute(sweep))"; got != want {
		t.Errorf("tree = %s, want %s", got, want)
	}
}

// TestChildrenMergeConcurrently: workers opening same-named children
// under one shared mid-tree parent in any interleaving fold into one
// node per name with every call counted (the sweep pattern).
func TestChildrenMergeConcurrently(t *testing.T) {
	tr := NewTrace("merge1", "POST /x", time.Now())
	sweep := tr.Root().Child("compute").Child("sweep")
	const workers, cells = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				acc := sweep.Child("accumulation.nfi")
				acc.Child("price.nfi").End()
				acc.End()
				sweep.Child("ordering").End()
			}
		}()
	}
	wg.Wait()
	sweep.End()

	snap := tr.Snapshot(time.Now())
	if got, want := shape(snap.Spans), "request(compute(sweep(accumulation.nfi(price.nfi) ordering)))"; got != want {
		t.Fatalf("tree = %s, want %s", got, want)
	}
	s := findPhase(snap.Spans, "sweep")
	for _, name := range []string{"accumulation.nfi", "price.nfi", "ordering"} {
		if p := findPhase(s.Children, name); p.Calls != workers*cells {
			t.Errorf("%s calls = %d, want %d", name, p.Calls, workers*cells)
		}
	}
}

// TestSpanMark: a mark counts a zero-duration activation under the span
// it is made on; on a nil span or a span from a collected tree it
// records nothing.
func TestSpanMark(t *testing.T) {
	tr := NewTracer()
	compute := tr.Root().Child("compute")
	compute.Mark("fault.serve.compute")
	compute.Mark("fault.serve.compute")
	compute.End()
	var nilSpan *Span
	nilSpan.Mark("fault.nowhere")

	first := tr.Take()
	mark := findPhase(first, "fault.serve.compute")
	if mark == nil || findPhase(first[0].Children, "fault.serve.compute") == nil {
		t.Fatalf("mark not under compute: %+v", first)
	}
	if mark.Calls != 2 || mark.Ns != 0 {
		t.Errorf("mark calls/ns = %d/%d, want 2/0", mark.Calls, mark.Ns)
	}
	compute.Mark("fault.late")
	if rest := tr.Snapshot(); len(rest) != 0 {
		t.Errorf("a mark on a collected span recorded %+v", rest)
	}
}

// TestNilParentAllocatesNothing: library phases opened without a parent
// cost no allocation.
func TestNilParentAllocatesNothing(t *testing.T) {
	var parent *Span
	allocs := testing.AllocsPerRun(100, func() {
		sp := parent.Child("incr.resort")
		sp.Annotate("k", "v")
		sp.Mark("fault.x")
		sp.End()
		SpanFrom(context.Background()).Child("sweep").End()
	})
	if allocs != 0 {
		t.Errorf("nil parent: %v allocations per phase, want 0", allocs)
	}
}

// shape renders a span forest as "name(child child(...))", children
// sorted by name.
func shape(spans []PhaseSnapshot) string {
	parts := make([]string, len(spans))
	for i, sp := range spans {
		parts[i] = sp.Name
		if len(sp.Children) > 0 {
			parts[i] += "(" + shape(sp.Children) + ")"
		}
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
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
