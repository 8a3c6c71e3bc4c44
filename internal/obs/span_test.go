package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanNesting(t *testing.T) {
	// Table of open/End scripts and the phase tree shape they must
	// produce. "start X" opens X under the innermost open span (the
	// tracer's root when none is), "end" ends it.
	type op struct {
		action string // "start" or "end"
		name   string
	}
	cases := []struct {
		name string
		ops  []op
		// want is a flat render: "parent/child:calls" entries in
		// first-entered order, depth-first.
		want []string
	}{
		{
			name: "single",
			ops:  []op{{"start", "a"}, {"end", ""}},
			want: []string{"a:1"},
		},
		{
			name: "nested",
			ops: []op{
				{"start", "exp"},
				{"start", "sampling"}, {"end", ""},
				{"start", "assign"},
				{"start", "ordering"}, {"end", ""},
				{"start", "partitioning"}, {"end", ""},
				{"end", ""},
				{"end", ""},
			},
			want: []string{"exp:1", "exp/sampling:1", "exp/assign:1",
				"exp/assign/ordering:1", "exp/assign/partitioning:1"},
		},
		{
			name: "same-name phases merge",
			ops: []op{
				{"start", "exp"},
				{"start", "trial"}, {"end", ""},
				{"start", "trial"}, {"end", ""},
				{"start", "trial"}, {"end", ""},
				{"end", ""},
			},
			want: []string{"exp:1", "exp/trial:3"},
		},
		{
			name: "siblings keep first-entered order",
			ops: []op{
				{"start", "b"}, {"end", ""},
				{"start", "a"}, {"end", ""},
				{"start", "b"}, {"end", ""},
			},
			want: []string{"b:2", "a:1"},
		},
		{
			name: "recursive same name nests",
			ops: []op{
				{"start", "x"},
				{"start", "x"}, {"end", ""},
				{"end", ""},
			},
			want: []string{"x:1", "x/x:1"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := NewTracer()
			stack := []*Span{tr.Root()}
			for _, o := range tc.ops {
				if o.action == "start" {
					stack = append(stack, stack[len(stack)-1].Child(o.name))
				} else {
					stack[len(stack)-1].End()
					stack = stack[:len(stack)-1]
				}
			}
			var got []string
			var walk func(prefix string, ps []PhaseSnapshot)
			walk = func(prefix string, ps []PhaseSnapshot) {
				for _, p := range ps {
					path := p.Name
					if prefix != "" {
						path = prefix + "/" + p.Name
					}
					got = append(got, path+":"+uitoa(p.Calls))
					walk(path, p.Children)
				}
			}
			walk("", tr.Snapshot())
			if len(got) != len(tc.want) {
				t.Fatalf("tree = %v, want %v", got, tc.want)
			}
			for i := range got {
				if got[i] != tc.want[i] {
					t.Fatalf("tree = %v, want %v", got, tc.want)
				}
			}
		})
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

func TestSpanRecordsTime(t *testing.T) {
	tr := NewTracer()
	sp := tr.Root().Child("timed")
	time.Sleep(5 * time.Millisecond)
	sp.End()
	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Ns < int64(2*time.Millisecond) {
		t.Fatalf("span recorded %+v, want >= 2ms", snap)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	tr := NewTracer()
	sp := tr.Root().Child("a")
	sp.End()
	sp.End() // must not double-book
	snap := tr.Snapshot()
	if snap[0].Calls != 1 {
		t.Fatalf("calls = %d, want 1", snap[0].Calls)
	}
	var nilSpan *Span
	nilSpan.End() // nil-safe
}

func TestTakeResetsAndOrphansInFlight(t *testing.T) {
	tr := NewTracer()
	outer := tr.Root().Child("outer")
	inner := outer.Child("inner")
	first := tr.Take()
	if len(first) != 1 || first[0].Name != "outer" || first[0].Children[0].Name != "inner" {
		t.Fatalf("Take = %+v", first)
	}
	// Ending spans from the collected generation must not touch the
	// fresh tree.
	inner.End()
	outer.End()
	if rest := tr.Snapshot(); len(rest) != 0 {
		t.Fatalf("post-Take tree not empty: %+v", rest)
	}
	// The tracer is reusable after Take, through a fresh Root.
	tr.Root().Child("fresh").End()
	if snap := tr.Snapshot(); len(snap) != 1 || snap[0].Name != "fresh" {
		t.Fatalf("fresh tree = %+v", snap)
	}
}

// TestSpanChild: children merge by name under their parent and sum
// their time; they may overlap and end in any order.
func TestSpanChild(t *testing.T) {
	tr := NewTracer()
	parent := tr.Root().Child("request")
	for i := 0; i < 3; i++ {
		c := parent.Child("cache.lookup")
		time.Sleep(time.Millisecond)
		c.End()
	}
	wait := parent.Child("wait")
	peer := parent.Child("peer.fetch")
	wait.Annotate("mode", "miss")
	wait.End()
	peer.End()
	parent.Child("next").End()
	parent.End()

	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].Name != "request" || snap[0].Calls != 1 {
		t.Fatalf("tree = %+v", snap)
	}
	var got []string
	for _, c := range snap[0].Children {
		got = append(got, c.Name+":"+uitoa(c.Calls))
	}
	if want := "cache.lookup:3 wait:1 peer.fetch:1 next:1"; strings.Join(got, " ") != want {
		t.Fatalf("request children = %v, want %s", got, want)
	}
	lookup := snap[0].Children[0]
	if lookup.Ns < int64(3*time.Millisecond) {
		t.Errorf("cache.lookup summed %dns, want >= 3ms", lookup.Ns)
	}
	if snap[0].Children[1].Attrs["mode"] != "miss" {
		t.Errorf("wait attrs = %v", snap[0].Children[1].Attrs)
	}
}

// TestSpanChildNilAndAfterTake: Child on a nil span is nil, and a
// child opened or ended after Take records nothing in either tree.
func TestSpanChildNilAndAfterTake(t *testing.T) {
	var nilSpan *Span
	if c := nilSpan.Child("x"); c != nil {
		t.Fatalf("Child on a nil span = %+v, want nil", c)
	}

	tr := NewTracer()
	parent := tr.Root().Child("request")
	open := parent.Child("cache.lookup")
	first := tr.Take()
	if len(first) != 1 || len(first[0].Children) != 1 || first[0].Children[0].Name != "cache.lookup" {
		t.Fatalf("Take = %+v", first)
	}
	open.End()
	late := parent.Child("wait")
	late.Annotate("mode", "miss")
	late.Child("deeper").End()
	late.End()
	if rest := tr.Snapshot(); len(rest) != 0 {
		t.Fatalf("post-Take tree not empty: %+v", rest)
	}
}

func TestStartTimer(t *testing.T) {
	h := newHistogram(ExponentialBuckets(1000, 10, 6))
	stop := StartTimer(h)
	time.Sleep(2 * time.Millisecond)
	stop()
	s := h.Snapshot()
	if s.Count != 1 || s.Sum < float64(time.Millisecond) {
		t.Fatalf("timer observed %+v", s)
	}
}
