package keynav

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
)

// planCounter counts recorded plans: a set records one per spec its
// consumers ask for, however many assignments label it.
var planCounter = obs.GetCounter("keynav.plans")

// Pair is one event-producing pair of occupied cells, given as the two
// cells' positions in their level's sorted key slab — the positions
// Index.Reps indexes.
type Pair struct{ A, B int32 }

// Spec selects the event families a Plan records.
type Spec struct {
	// Radius and Metric select the near-field neighborhood; a radius
	// <= 0 records no near-field pairs.
	Radius int
	Metric geom.Metric
	// Far records the interaction-list pairs of every level.
	Far bool
}

// covers reports whether a plan recorded for spec holds every family
// want asks for.
func (spec Spec) covers(want Spec) bool {
	return (want.Radius <= 0 || spec.Radius == want.Radius && spec.Metric == want.Metric) &&
		(!want.Far || spec.Far)
}

// Plan is the curve-independent shape of a set's event streams: the
// near-field upper pairs of one neighborhood as finest-level slab
// positions, and the interaction-list pairs of every level l >= 2 as
// level-l slab positions. Which cells are neighbors or list partners
// depends only on the occupied cells, not on the ranks a curve gives
// them, so the plan serves every labelling of its set: a replay reads
// each pair's two representatives from Index.Reps. Parent links are
// not stored; Index.ChildStart already encodes them.
//
// The pairs are kept in the chunks they were recorded in, which are
// also the natural units for a parallel replay. A plan is immutable
// once recorded and safe to share across goroutines.
type Plan struct {
	spec  Spec
	order uint
	// chunks holds the pairs in enumeration order: the near field's
	// chunks, then each level's interaction-list chunks from level 2 up.
	// Level l's chunks are chunks[ilStart[l]:ilStart[l+1]]; the near
	// field's are chunks[:ilStart[0]].
	chunks  [][]Pair
	ilStart []int
}

// planSlot is one plan of a set, recorded by the first caller that
// asks for its spec; later callers wait on once.
type planSlot struct {
	spec Spec
	once sync.Once
	plan *Plan
}

// Plan returns a plan of the set holding every family spec selects.
// The set records one the first time no earlier plan covers spec, on
// up to workers goroutines (0 means GOMAXPROCS); concurrent callers
// wait for that recording, and every later caller gets the same plan.
// The pairs come out in the same order at every worker count.
func (s *Set) Plan(spec Spec, workers int) *Plan {
	s.plansMu.Lock()
	var slot *planSlot
	for _, p := range s.plans {
		if p.spec.covers(spec) {
			slot = p
			break
		}
	}
	if slot == nil {
		slot = &planSlot{spec: spec}
		s.plans = append(s.plans, slot)
	}
	s.plansMu.Unlock()
	slot.once.Do(func() { slot.plan = s.record(spec, workers) })
	return slot.plan
}

// planTask is one recording task, which fills one chunk: the near
// field over particle positions [lo, hi), or level's interaction lists
// over parent positions [lo, hi) of level-1.
type planTask struct {
	level  uint
	lo, hi int
	near   bool
}

// recordScratch pools the buffers recording workers enumerate into;
// each chunk is then stored at its exact size, so a plan holds no
// spare capacity for as long as its set lives.
var recordScratch = sync.Pool{New: func() any { return new([]Pair) }}

// record enumerates the event pairs spec selects over the set's
// occupied cells on up to workers goroutines.
func (s *Set) record(spec Spec, workers int) *Plan {
	defer obs.StartSpan("keynav.plan").End()
	planCounter.Inc()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := &Plan{spec: spec, order: s.Order, ilStart: make([]int, s.Order+2)}
	var tasks []planTask
	split := func(level uint, m int, near bool) {
		c := max(m/(4*workers), 1)
		for lo := 0; lo < m; lo += c {
			tasks = append(tasks, planTask{level: level, lo: lo, hi: min(lo+c, m), near: near})
		}
	}
	if spec.Radius > 0 {
		split(s.Order, s.N(), true)
	}
	for l := range pl.ilStart {
		pl.ilStart[l] = len(tasks)
	}
	for l := uint(2); l <= s.Order; l++ {
		if spec.Far {
			split(l, s.LevelLen(l-1), false)
		}
		pl.ilStart[l+1] = len(tasks)
	}
	pl.chunks = make([][]Pair, len(tasks))
	var next atomic.Int64
	// The first worker panic stops the recording and is re-raised on
	// the caller once every worker has returned.
	var guard panics.Guard
	record := func() {
		defer guard.Recover()
		buf := recordScratch.Get().(*[]Pair)
		defer recordScratch.Put(buf)
		for !guard.Stopped() {
			t := int(next.Add(1)) - 1
			if t >= len(tasks) {
				return
			}
			tk := tasks[t]
			if tk.near {
				*buf = s.upperNeighborPairs(tk.lo, tk.hi, spec.Radius, spec.Metric, (*buf)[:0])
			} else {
				*buf = s.upperILPairs(tk.level, tk.lo, tk.hi, (*buf)[:0])
			}
			if len(*buf) > 0 {
				// Clone allocates without zeroing what it copies over.
				pl.chunks[t] = slices.Clone(*buf)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			record()
		}()
	}
	record()
	wg.Wait()
	guard.Repanic()
	return pl
}

// Near returns the near-field upper pairs for the (radius, m)
// neighborhood, chunk by chunk: for each pair {i, j}, particle position
// i's cell and the cell at position j within the radius that follows
// it in row-major order. It panics if the plan recorded another
// neighborhood; a radius <= 0 has no pairs.
func (p *Plan) Near(radius int, m geom.Metric) [][]Pair {
	if radius <= 0 {
		return nil
	}
	if p.spec.Radius != radius || p.spec.Metric != m {
		panic(fmt.Sprintf("keynav: plan recorded the r=%d %s near field, asked for r=%d %s",
			p.spec.Radius, p.spec.Metric, radius, m))
	}
	return p.chunks[:p.ilStart[0]]
}

// IL returns level l's interaction-list pairs, chunk by chunk, each
// unordered pair of well-separated cells once. It panics if the plan
// did not record the far field.
func (p *Plan) IL(l uint) [][]Pair {
	if !p.spec.Far {
		panic("keynav: plan did not record the interaction lists")
	}
	if l < 2 || l > p.order {
		return nil
	}
	return p.chunks[p.ilStart[l]:p.ilStart[l+1]]
}
