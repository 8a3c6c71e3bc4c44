package keynav

import (
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"

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
// The pairs are kept in the chunks they were recorded in, none of them
// empty, which are also the natural units for a parallel replay. A
// plan is immutable once recorded and safe to share across goroutines.
type Plan struct {
	spec Spec
	// near holds the near field's chunks and il[l] level l's
	// interaction-list chunks (l <= Order), each in recording order.
	near [][]Pair
	il   [][][]Pair
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
// up to workers goroutines (0 means GOMAXPROCS), timed as a
// keynav.plan phase under the recording caller's parent (nil records
// none); concurrent callers wait for that recording, and every later
// caller gets the same plan. The pairs come out in the same order at
// every worker count.
func (s *Set) Plan(parent *obs.Span, spec Spec, workers int) *Plan {
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
	slot.once.Do(func() { slot.plan = s.record(parent, spec, workers) })
	return slot.plan
}

// record enumerates the event pairs spec selects in one top-down pass
// that refines adjacency, on up to workers goroutines. A cell's
// children are adjacent, and every child pair of two adjacent cells is
// adjacent or an interaction-list pair, so level l's pairs come from
// level l-1's without a search. Particles within the near-field radius
// r lie in equal or adjacent cells of the finest level whose cells are
// at least r wide, so the near field crosses those cells' particle
// runs; at r = 1 it is the finest level's adjacency. Each level's
// chunks are kept in order, so the pairs are the same at any worker
// count.
func (s *Set) record(parent *obs.Span, spec Spec, workers int) *Plan {
	defer parent.Child("keynav.plan").End()
	planCounter.Inc()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	order := int(s.Order)
	// nearL is the level the near field is read at and last the finest
	// level the pass refines to; -1 when spec selects neither.
	nearL, last := -1, -1
	if spec.Radius > 0 {
		nearL = max(order-bits.Len(uint(spec.Radius-1)), 0)
		last = nearL
	}
	if spec.Far {
		last = order
	}
	rec := &recorder{s: s, workers: workers, il: make([][][]Pair, s.Order+1)}
	rec.list = []adj{{0, 0, same}}[:s.LevelLen(0)] // the root, without neighbors
	for l := 0; l <= last; l++ {
		if l > 0 {
			md := mode{il: spec.Far && l >= 2, keep: l < last || l == nearL && l < order}
			if l == nearL && l == order {
				md.near, md.axis = true, spec.Metric == geom.MetricManhattan
			}
			rec.refine(uint(l), md)
		}
		if l == nearL && l < order {
			rec.nearField(uint(l), spec.Radius, spec.Metric)
		}
	}
	return &Plan{spec: spec, near: rec.near, il: rec.il}
}

// upper lists the row-major-upper offsets of a cell's eight neighbors:
// an adjacent pair of cells is kept once, as (lower, upper), with the
// upper cell at one of these offsets from the lower.
var upper = [4]struct{ dx, dy int }{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}

const (
	// same is the offset of a cell from itself.
	same = uint8(len(upper))
	// A child pair's kind: bits 0-1 hold the upper offset of an
	// adjacent pair, swapped reverses its order, and separated pairs
	// are interaction-list partners.
	separated = 4
	swapped   = 8
)

// kin[o][ma][mb] lists the child pairs of two cells whose occupied
// children are the sub-position masks ma and mb, the second cell at
// upper offset o from the first (o = same: one cell's own children,
// ma = mb, each pair once). Sub-positions are the low two key bits,
// bit 0 = x and bit 1 = y, so key order is row-major order inside a
// cell. The pairs are kinPairs[off:off+il+adj], the separated ones
// first; each is a byte ia<<6 | ib<<4 | kind, ia and ib being the
// children's indices in their child runs. axis counts the adjacent
// pairs along an axis, at (1, 0) or (0, 1).
var (
	kin [len(upper) + 1][16][16]struct {
		off           uint16
		il, adj, axis uint8
	}
	kinPairs []uint8
)

func init() {
	for o := range kin {
		var dx, dy int
		if uint8(o) != same {
			dx, dy = 2*upper[o].dx, 2*upper[o].dy
		}
		for ma := range uint8(16) {
			for mb := range uint8(16) {
				k := &kin[o][ma][mb]
				k.off = uint16(len(kinPairs))
				var adjacent []uint8
				for sa := range 4 {
					for sb := range 4 {
						if ma>>sa&1 == 0 || mb>>sb&1 == 0 || uint8(o) == same && sb <= sa {
							continue
						}
						ia, ib := bits.OnesCount8(ma&(1<<sa-1)), bits.OnesCount8(mb&(1<<sb-1))
						c := uint8(ia<<6|ib<<4) | kind(dx+sb&1-sa&1, dy+sb>>1-sa>>1)
						if c&separated != 0 {
							kinPairs, k.il = append(kinPairs, c), k.il+1
						} else if adjacent = append(adjacent, c); c&1 == 0 {
							k.axis++
						}
					}
				}
				kinPairs, k.adj = append(kinPairs, adjacent...), uint8(len(adjacent))
			}
		}
	}
}

// kind classifies the offset (dx, dy) from one cell to another of its
// level: separated beyond Chebyshev distance 1, else the upper offset
// of the pair, swapped if the second cell is the lower one.
func kind(dx, dy int) uint8 {
	if max(dx, -dx, dy, -dy) > 1 {
		return separated
	}
	if dy < 0 || dy == 0 && dx < 0 {
		return swapped | kind(-dx, -dy)
	}
	for o, off := range upper {
		if off.dx == dx && off.dy == dy {
			return uint8(o)
		}
	}
	panic("keynav: a cell paired with itself")
}

// adj is a pair of occupied cells of a level by slab position: b lies
// at upper offset o from a, or b = a and o = same.
type adj struct {
	a, b int32
	o    uint8
}

// mode says what refining to a level emits: interaction-list pairs;
// its list, kept to refine further or read the near field at; and, at
// the finest level for r = 1, its adjacent pairs as near-field pairs
// (Manhattan: those along an axis).
type mode struct {
	il, keep, near, axis bool
}

// recorder holds one recording: the list of the level last refined —
// each occupied cell holding two or more particles with itself, then
// each adjacent pair — with spare to build the next level's in, and
// the chunks recorded so far.
type recorder struct {
	s           *Set
	workers     int
	list, spare []adj
	near        [][]Pair
	il          [][][]Pair
}

// task is one chunk of a level's list, [lo, hi), with its outputs; at
// and adjs locate the adjacent pairs it finds in the next list.
type task struct {
	lo, hi, at, adjs int
	il, near         []Pair
}

// split cuts a list of m entries into about four tasks per worker.
func (r *recorder) split(m int) (tasks []task) {
	c := max(m/(4*r.workers), 1)
	for lo := 0; lo < m; lo += c {
		tasks = append(tasks, task{lo: lo, hi: min(lo+c, m)})
	}
	return tasks
}

// parallel runs f on every task on up to r.workers goroutines (w).
func (r *recorder) parallel(tasks []task, f func(w int, t *task)) {
	panics.Parallel(min(r.workers, len(tasks)), len(tasks), func(w, i int) { f(w, &tasks[i]) })
}

// collect files the tasks' chunks in task order: near-field chunks,
// and interaction-list chunks as level l's.
func (r *recorder) collect(l uint, tasks []task) {
	for _, t := range tasks {
		if len(t.il) > 0 {
			r.il[l] = append(r.il[l], t.il)
		}
		if len(t.near) > 0 {
			r.near = append(r.near, t.near)
		}
	}
}

// refine builds level l's list from level l-1's and emits what md
// selects. Which child pairs a cell or an adjacent cell pair has
// depends only on the pair's offset and on which children are
// occupied, so kin lists them, and a first pass counts what each task
// emits at one lookup per entry. The second writes every output at
// its exact size: a plan lives as long as its set.
func (r *recorder) refine(l uint, md mode) {
	start, occ := r.s.lv[l-1].childStart, r.s.lv[l-1].occ
	up := r.list
	tasks := r.split(len(up))
	r.parallel(tasks, func(_ int, t *task) {
		var il, adjs, axis int
		for _, e := range up[t.lo:t.hi] {
			k := &kin[e.o][occ[e.a]][occ[e.b]]
			il, adjs, axis = il+int(k.il), adjs+int(k.adj), axis+int(k.axis)
		}
		if md.il {
			t.il = make([]Pair, il)
		}
		if md.keep {
			t.adjs = adjs
		}
		if md.axis {
			adjs = axis
		}
		if md.near {
			t.near = make([]Pair, adjs)
		}
	})
	next, first := r.spare[:0], r.s.lv[l].first
	if md.keep {
		for j := range int32(len(first) - 1) {
			// A cell holding one particle never holds a pair.
			if first[j+1]-first[j] > 1 {
				next = append(next, adj{j, j, same})
			}
		}
	}
	for i := range tasks {
		tasks[i].at = len(next)
		next = append(next, make([]adj, tasks[i].adjs)...)
	}
	r.parallel(tasks, func(_ int, t *task) {
		il, adjs, near := t.il, next[t.at:t.at+t.adjs], t.near
		for _, e := range up[t.lo:t.hi] {
			a, b := start[e.a], start[e.b]
			k := &kin[e.o][occ[e.a]][occ[e.b]]
			pairs := kinPairs[k.off : k.off+uint16(k.il)+uint16(k.adj)]
			if md.il {
				for j, c := range pairs[:k.il] {
					il[j] = Pair{a + int32(c>>6), b + int32(c>>4&3)}
				}
				il = il[k.il:]
			}
			for _, c := range pairs[k.il:] {
				x, y, o := a+int32(c>>6), b+int32(c>>4&3), c&3
				if c&swapped != 0 {
					x, y = y, x
				}
				if md.keep {
					adjs[0], adjs = adj{x, y, o}, adjs[1:]
				}
				if md.near && (!md.axis || o&1 == 0) {
					near[0], near = Pair{x, y}, near[1:]
				}
			}
		}
	})
	r.collect(l, tasks)
	r.list, r.spare = next, r.list
}

// nearField records the near field of the given radius from level l,
// whose cells are at least radius wide: the particle pairs within the
// radius in each occupied cell and across each adjacent cell pair, as
// (row-major lower, upper). A worker gathers a task's pairs in its own
// buffer and stores them at their exact size.
func (r *recorder) nearField(l uint, radius int, m geom.Metric) {
	first := r.s.lv[l].first
	at := make([]geom.Point, r.s.N()) // by finest slab position
	for i, p := range r.s.pts {
		at[r.s.pos[i]] = p
	}
	tasks, bufs := r.split(len(r.list)), make([][]Pair, r.workers)
	r.parallel(tasks, func(w int, t *task) {
		buf := bufs[w][:0]
		for _, e := range r.list[t.lo:t.hi] {
			for a := first[e.a]; a < first[e.a+1]; a++ {
				b := first[e.b]
				if e.o == same {
					b = a + 1
				}
				for ; b < first[e.b+1]; b++ {
					u, v := at[a], at[b]
					if m.Dist(u, v) > radius {
						continue
					}
					if v.Y < u.Y || v.Y == u.Y && v.X < u.X {
						buf = append(buf, Pair{b, a})
					} else {
						buf = append(buf, Pair{a, b})
					}
				}
			}
		}
		t.near, bufs[w] = slices.Clone(buf), buf
	})
	r.collect(l, tasks)
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
	return p.near
}

// IL returns level l's interaction-list pairs, chunk by chunk, each
// unordered pair of well-separated cells once. It panics if the plan
// did not record the far field.
func (p *Plan) IL(l uint) [][]Pair {
	if !p.spec.Far {
		panic("keynav: plan did not record the interaction lists")
	}
	if l < 2 || int(l) >= len(p.il) {
		return nil
	}
	return p.il[l]
}
