package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Times are offsets from the tracer's epoch; CPU
// times are the process's user+system time (getrusage), so a span
// whose layer runs several workers shows more CPU than wall time.
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"` // -1 for a root span
	Name     string        `json:"name"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
	CPUStart time.Duration `json:"cpu_start_ns"`
	CPUEnd   time.Duration `json:"cpu_end_ns"`
}

func (s span) wall() time.Duration { return s.End - s.Start }
func (s span) cpu() time.Duration  { return s.CPUEnd - s.CPUStart }

// tracer records spans in memory. A span's parent is the innermost
// span still open when it begins, so the tracer must be driven from one
// goroutine; the traced runs call each layer from a single goroutine
// (layers keep their own internal workers) so that self times add up
// to wall time. A nil tracer records nothing, which is how the
// untraced runs pay no tracing cost.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named name and returns its id for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, CPUStart: processCPU(), Start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	s := &t.spans[id]
	s.End = time.Since(t.epoch)
	s.CPUEnd = processCPU()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic(fmt.Sprintf("perfbench: span %q ended out of order", s.Name))
	}
	t.open = t.open[:len(t.open)-1]
}

// timed runs f inside a span named name.
func (t *tracer) timed(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// write stores the recorded spans as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// processCPU returns the process's user plus system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB returns the process's high-water resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// selfTime is one span's duration minus the part of its interval that
// its children cover, in wall and CPU time.
type selfTime struct {
	Wall, CPU time.Duration
}

// selfTimes returns the self time of every span, indexed by span id.
// Wall self time subtracts the union of the children's intervals
// (clipped to the parent), so overlapping children are not counted
// twice. CPU self time subtracts the children's CPU time, which is
// exact for the sequential children this tracer records.
func selfTimes(spans []span) []selfTime {
	children := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	out := make([]selfTime, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi time.Duration }
		var ivs []iv
		var childCPU time.Duration
		for _, c := range children[i] {
			cs := spans[c]
			lo, hi := max(cs.Start, s.Start), min(cs.End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
			childCPU += cs.cpu()
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		out[i] = selfTime{Wall: s.wall() - covered, CPU: s.cpu() - childCPU}
	}
	return out
}

// layerTotals sums self times by span name.
func layerTotals(spans []span) map[string]selfTime {
	self := selfTimes(spans)
	out := make(map[string]selfTime)
	for i, s := range spans {
		t := out[s.Name]
		t.Wall += self[i].Wall
		t.CPU += self[i].CPU
		out[s.Name] = t
	}
	return out
}

// unattributed returns the share of the root spans' wall time that no
// layer span covers: the roots' own self time over their duration.
func unattributed(spans []span) float64 {
	self := selfTimes(spans)
	var own, total time.Duration
	for i, s := range spans {
		if s.Parent < 0 {
			own += self[i].Wall
			total += s.wall()
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}
