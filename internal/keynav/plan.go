package keynav

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
)

// planCounter counts recorded plans: a sweep that shares one plan per
// sampled particle set records one per group, not one per cell.
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

// Plan is the curve-independent shape of an index's event streams: the
// near-field upper pairs of one neighborhood as finest-level slab
// positions, and the interaction-list pairs of every level l >= 2 as
// level-l slab positions. Which cells are neighbors, list partners or
// parent and child depends only on the occupied cells, not on the
// ranks a curve gives them, so one plan recorded from any index over a
// particle set serves the index of every assignment of that set: a
// replay reads each pair's two representatives from Index.Reps. Parent
// links are not stored; Index.ChildStart already encodes them.
//
// The pairs are kept in the chunks they were recorded in, which are
// also the natural units for a parallel replay. A plan is immutable
// once recorded and safe to share across goroutines. Check panics
// when it is applied to an index over another occupied-cell set.
type Plan struct {
	spec  Spec
	order uint
	keys  []uint64 // the finest keys the plan was recorded over
	// chunks holds the pairs in enumeration order: the near field's
	// chunks, then each level's interaction-list chunks from level 2 up.
	// Level l's chunks are chunks[ilStart[l]:ilStart[l+1]]; the near
	// field's are chunks[:ilStart[0]].
	chunks  [][]Pair
	ilStart []int
}

// planTask is one recording task, which fills one chunk: the near
// field over particle positions [lo, hi), or level's interaction lists
// over parent positions [lo, hi) of level-1.
type planTask struct {
	level  uint
	lo, hi int
	near   bool
}

// Recorded plans are recycled through a small free list: a sweep
// records one plan per sampled particle set and releases it when the
// set's last cell finishes, so only the plans of in-flight groups are
// live. (A sync.Pool would strand a plan released on one P in that
// P's private slot, out of reach of the next recording.)
var (
	planMu   sync.Mutex
	planFree []*Plan
)

// planKeep bounds the free list at the groups a sweep has in flight,
// about one per worker, with a floor for concurrent sweeps.
func planKeep() int { return max(4, runtime.GOMAXPROCS(0)) }

// RecordPlan enumerates the event pairs spec selects over the index's
// occupied cells on up to workers goroutines (0 means GOMAXPROCS). The
// pairs come out in the same order at every worker count.
func RecordPlan(ix *Index, spec Spec, workers int) *Plan {
	defer obs.StartSpan("keynav.plan").End()
	planCounter.Inc()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pl := newPlan()
	pl.spec, pl.order = spec, ix.Order
	pl.keys = append(pl.keys[:0], ix.keys...)

	var tasks []planTask
	split := func(level uint, m int, near bool) {
		c := max(m/(4*workers), 1)
		for lo := 0; lo < m; lo += c {
			tasks = append(tasks, planTask{level: level, lo: lo, hi: min(lo+c, m), near: near})
		}
	}
	pl.ilStart = slices.Grow(pl.ilStart[:0], int(ix.Order)+2)[:int(ix.Order)+2]
	if spec.Radius > 0 {
		split(ix.Order, ix.N(), true)
	}
	for l := range pl.ilStart {
		pl.ilStart[l] = len(tasks)
	}
	for l := uint(2); l <= ix.Order; l++ {
		if spec.Far {
			split(l, ix.LevelLen(l-1), false)
		}
		pl.ilStart[l+1] = len(tasks)
	}
	// Growing through the slice's capacity keeps the pair buffers of
	// earlier recordings for reuse.
	pl.chunks = slices.Grow(pl.chunks[:0], len(tasks))[:len(tasks)]
	var next atomic.Int64
	record := func() {
		for {
			t := int(next.Add(1)) - 1
			if t >= len(tasks) {
				return
			}
			tk := tasks[t]
			if tk.near {
				pl.chunks[t] = ix.upperNeighborPairs(tk.lo, tk.hi, spec.Radius, spec.Metric, pl.chunks[t][:0])
			} else {
				pl.chunks[t] = ix.upperILPairs(tk.level, tk.lo, tk.hi, pl.chunks[t][:0])
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
	return pl
}

// newPlan takes a plan from the free list, or makes one.
func newPlan() *Plan {
	planMu.Lock()
	defer planMu.Unlock()
	if n := len(planFree); n > 0 {
		pl := planFree[n-1]
		planFree[n-1] = nil
		planFree = planFree[:n-1]
		return pl
	}
	return new(Plan)
}

// Check panics unless the plan was recorded over exactly the index's
// occupied cells. Applying a plan to another particle set is a caller
// bug: its positions would silently pair the wrong cells.
func (p *Plan) Check(ix *Index) {
	if ix.Order != p.order || !slices.Equal(ix.keys, p.keys) {
		panic(fmt.Sprintf("keynav: plan recorded over %d cells at order %d applied to another cell set (%d cells at order %d)",
			len(p.keys), p.order, ix.N(), ix.Order))
	}
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

// Release returns the plan's slabs for reuse by a later recording. The
// plan must not be used afterwards, by any goroutine.
func (p *Plan) Release() {
	if p == nil {
		return
	}
	planMu.Lock()
	if len(planFree) < planKeep() {
		planFree = append(planFree, p)
	}
	planMu.Unlock()
}
