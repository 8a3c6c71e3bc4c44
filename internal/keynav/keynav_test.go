package keynav_test

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// quadtree.RankTree and a cell->rank map built from the assignment's
// owners are the differential oracles: every query family of the
// key-space engine is pinned here to exact equality —
// same ranks, same representative per cell, same event multisets —
// across curves (sorted and unsorted key input), seeds, and radii.

// samplePoints draws n distinct uniform cells at the given order.
func samplePoints(t testing.TB, order uint, n int, seed uint64) []geom.Point {
	t.Helper()
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func buildAssignment(t *testing.T, curve sfc.Curve, order uint, n, p int, seed uint64) *acd.Assignment {
	t.Helper()
	set, err := keynav.NewSet(nil, order, samplePoints(t, order, n, seed))
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(nil, set, curve, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var testCurves = []sfc.Curve{sfc.RowMajor, sfc.Morton, sfc.Gray, sfc.Hilbert}

// alongCurve returns the assignment's particles and their owners in
// the order the curve visits them.
func alongCurve(a *acd.Assignment, curve sfc.Curve) ([]geom.Point, []int32) {
	pts, owners := a.KeyIndex().Set().Points(), a.Owners()
	sorted, ranks := make([]geom.Point, len(pts)), make([]int32, len(pts))
	for k, i := range sfc.SortPoints(curve, a.Order, pts) {
		sorted[k], ranks[k] = pts[i], owners[i]
	}
	return sorted, ranks
}

// labelled builds a fresh set over the assignment's particles (in the
// curve's order, so the set sees sorted and unsorted key input) and
// labels it with the assignment's owners.
func labelled(t testing.TB, curve sfc.Curve, a *acd.Assignment) *keynav.Index {
	t.Helper()
	pts, ranks := alongCurve(a, curve)
	set, err := keynav.NewSet(nil, a.Order, pts)
	if err != nil {
		t.Fatal(err)
	}
	return set.Label(ranks)
}

// rankTree is the per-level oracle: the dense representative tree of
// the assignment's points and owners.
func rankTree(a *acd.Assignment) *quadtree.RankTree {
	return quadtree.BuildRankTree(a.Order, a.KeyIndex().Set().Points(), a.Owners())
}

// rankMap is the finest-level oracle: a cell->rank map built from the
// assignment's owners. (acd.Assignment.RankAt answers through the
// index itself, so it cannot serve as the reference.)
type rankMap map[geom.Point]int32

func newRankMap(a *acd.Assignment) rankMap {
	owners := a.Owners()
	m := make(rankMap, a.N())
	for i, pt := range a.KeyIndex().Set().Points() {
		m[pt] = owners[i]
	}
	return m
}

// at returns the rank owning cell q, or -1 if it is empty.
func (m rankMap) at(q geom.Point) int32 {
	if r, ok := m[q]; ok {
		return r
	}
	return -1
}

// TestIndexRankAtMatchesAssignment probes every grid cell, and cells
// just outside the grid, against the assignment's own cell->rank
// pairs.
func TestIndexRankAtMatchesAssignment(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 7)
		ranks := newRankMap(a)
		ix := labelled(t, curve, a)
		side := geom.Side(order)
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				q := geom.Pt(x, y)
				if got, want := ix.RankAt(q), ranks.at(q); got != want {
					t.Fatalf("%s: RankAt%v = %d, oracle %d", curve.Name(), q, got, want)
				}
			}
		}
		for _, q := range []geom.Point{geom.Pt(side, 0), geom.Pt(0, side), geom.Pt(side, side)} {
			if got := ix.RankAt(q); got != -1 {
				t.Fatalf("%s: RankAt%v outside the grid = %d, want -1", curve.Name(), q, got)
			}
		}
	}
}

// TestIndexRepMatchesRankTree labels one set under every curve, and
// under shuffled explicit ownerships, and probes every cell of every
// level against the quadtree representative slab.
func TestIndexRepMatchesRankTree(t *testing.T) {
	const order, n, p = 5, 300, 16
	pts := samplePoints(t, order, n, 11)
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		t.Fatal(err)
	}
	var as []*acd.Assignment
	var names []string
	for _, curve := range testCurves {
		a, err := acd.Assign(nil, set, curve, p)
		if err != nil {
			t.Fatal(err)
		}
		as, names = append(as, a), append(names, curve.Name())
	}
	for seed := uint64(1); seed <= 2; seed++ {
		perm := make([]int, n)
		rng.New(seed).Perm(perm)
		ranks := make([]int32, n)
		for i, j := range perm {
			ranks[i] = int32(j * p / n)
		}
		a, err := acd.FromOwners(nil, set, ranks, p)
		if err != nil {
			t.Fatal(err)
		}
		as, names = append(as, a), append(names, fmt.Sprintf("owners%d", seed))
	}
	for k, a := range as {
		ix := a.KeyIndex()
		tree := rankTree(a)
		for l := uint(0); l <= order; l++ {
			side := geom.Side(l)
			occupied := 0
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					got, want := ix.Rep(l, x, y), tree.Rep(l, x, y)
					if got != want {
						t.Fatalf("%s: Rep(%d,%d,%d) = %d, oracle %d", names[k], l, x, y, got, want)
					}
					if got >= 0 {
						occupied++
					}
				}
			}
			if ix.LevelLen(l) != occupied {
				t.Fatalf("%s: LevelLen(%d) = %d, oracle %d", names[k], l, ix.LevelLen(l), occupied)
			}
		}
	}
}

// pairKey canonicalizes an unordered rank pair for multiset counting.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// recordWorkers are the recording worker counts the enumeration tests
// cover: a plan must come out the same however its chunks are spread.
var recordWorkers = []int{1, 2, 7}

// nearRanks replays a plan's near-field pairs against the index's
// finest-level ranks as a canonical rank-pair multiset.
func nearRanks(ix *keynav.Index, pl *keynav.Plan, radius int, m geom.Metric) map[uint64]int {
	reps := ix.Reps(ix.Order)
	got := map[uint64]int{}
	for _, pr := range slices.Concat(pl.Near(radius, m)...) {
		got[pairKey(reps[pr.A], reps[pr.B])]++
	}
	return got
}

// ilRanks replays a plan's level-l interaction-list pairs against the
// index's level-l representatives.
func ilRanks(ix *keynav.Index, pl *keynav.Plan, l uint) map[uint64]int {
	reps := ix.Reps(l)
	got := map[uint64]int{}
	for _, pr := range slices.Concat(pl.IL(l)...) {
		got[pairKey(reps[pr.A], reps[pr.B])]++
	}
	return got
}

// TestVisitUpperNeighborPairsMatchesOracle compares the near-field
// upper event multiset, recorded as a plan and replayed against the
// index's ranks, with geom.VisitUpperNeighborhood probing a cell->rank
// map, across metrics, radii (including radius beyond the grid side),
// and recording worker counts.
func TestVisitUpperNeighborPairsMatchesOracle(t *testing.T) {
	const order, n, p = 5, 300, 16
	side := geom.Side(order)
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 13)
		ranks := newRankMap(a)
		for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			for _, radius := range []int{0, 1, 2, 3, int(side), int(side) + 3} {
				want := map[uint64]int{}
				for _, pt := range a.KeyIndex().Set().Points() {
					mine := ranks.at(pt)
					geom.VisitUpperNeighborhood(pt, radius, m, side, func(q geom.Point) {
						if r := ranks.at(q); r >= 0 {
							want[pairKey(mine, r)]++
						}
					})
				}
				for _, workers := range recordWorkers {
					// A fresh set records its plan at this worker count.
					ix := labelled(t, curve, a)
					pl := ix.Set().Plan(nil, keynav.Spec{Radius: radius, Metric: m}, workers)
					if got := nearRanks(ix, pl, radius, m); !mapsEqual(got, want) {
						t.Fatalf("%s %s r=%d workers=%d: near-field multiset mismatch (got %d keys, want %d)",
							curve.Name(), m, radius, workers, len(got), len(want))
					}
				}
			}
		}
	}
}

// TestVisitParentLinksMatchesTree compares the interpolation link
// multiset per level, replayed from the index's child groups
// (ChildStart), against the quadtree cell walk. It also checks the
// forks (Forks) against the tree's cells with two or more occupied
// children, and that every other parent's only child has the parent's
// representative under both labellings (Label and, for the quadrant
// curves, LabelAlong), which is why a replay may skip their links.
func TestVisitParentLinksMatchesTree(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 17)
		ix := labelled(t, curve, a)
		tree := rankTree(a)
		for l := uint(1); l <= order; l++ {
			want := map[uint64]int{}
			tree.VisitCells(l, func(x, y uint32, rep int32) {
				want[pairKey(tree.Rep(l-1, x/2, y/2), rep)]++
			})
			parents, start, reps := ix.Reps(l-1), ix.ChildStart(l-1), ix.Reps(l)
			if len(start) != ix.LevelLen(l-1)+1 || int(start[len(start)-1]) != ix.LevelLen(l) {
				t.Fatalf("%s l=%d: ChildStart has %d entries ending at %d, want %d ending at %d",
					curve.Name(), l, len(start), start[len(start)-1], ix.LevelLen(l-1)+1, ix.LevelLen(l))
			}
			got := map[uint64]int{}
			for j, pr := range parents {
				for _, r := range reps[start[j]:start[j+1]] {
					got[pairKey(pr, r)]++
				}
			}
			if !mapsEqual(got, want) {
				t.Fatalf("%s l=%d: parent-link multiset mismatch", curve.Name(), l)
			}

			children := map[[2]uint32]int{}
			tree.VisitCells(l, func(x, y uint32, _ int32) { children[[2]uint32{x / 2, y / 2}]++ })
			wantForks := 0
			for _, c := range children {
				if c > 1 {
					wantForks++
				}
			}
			forks := ix.Forks(l - 1)
			if len(forks) != wantForks || !slices.IsSorted(forks) {
				t.Fatalf("%s l=%d: forks %v, want %d in ascending order", curve.Name(), l, forks, wantForks)
			}
			for _, lab := range []*keynav.Index{ix, a.KeyIndex()} {
				parents, start, forks, reps, next := lab.Reps(l-1), lab.ChildStart(l-1), lab.Forks(l-1), lab.Reps(l), 0
				for j := range parents {
					fork := next < len(forks) && int(forks[next]) == j
					if fork {
						next++
					}
					if n := start[j+1] - start[j]; fork != (n > 1) {
						t.Fatalf("%s l=%d: parent %d has %d children, listed as a fork: %v", curve.Name(), l, j, n, fork)
					}
					if !fork && reps[start[j]] != parents[j] {
						t.Fatalf("%s l=%d: parent %d (rep %d) has an only child of rep %d", curve.Name(), l, j, parents[j], reps[start[j]])
					}
				}
			}
		}
	}
}

// upperILPairs is the interaction-list oracle: the quadtree's per-cell
// InteractionList enumeration at one level, keeping each unordered cell
// pair once, with the row-major-lower cell as source.
func upperILPairs(tree *quadtree.RankTree, level uint) map[uint64]int {
	pairs := map[uint64]int{}
	tree.VisitCells(level, func(x, y uint32, rep int32) {
		tree.InteractionList(level, x, y, func(nx, ny uint32, other int32) {
			if ny > y || (ny == y && nx > x) {
				pairs[pairKey(rep, other)]++
			}
		})
	})
	return pairs
}

// TestVisitUpperILPairsMatchesTree compares the interaction-list pair
// multiset per level, recorded as a plan at several worker counts and
// replayed against the level's representatives, with the quadtree
// enumeration.
func TestVisitUpperILPairsMatchesTree(t *testing.T) {
	const order = 5
	for _, curve := range testCurves {
		for _, tc := range []struct {
			n, p int
			seed uint64
		}{{300, 16, 19}, {12, 4, 23}, {1, 1, 29}} {
			a := buildAssignment(t, curve, order, tc.n, tc.p, tc.seed)
			tree := rankTree(a)
			for _, workers := range recordWorkers {
				ix := labelled(t, curve, a)
				pl := ix.Set().Plan(nil, keynav.Spec{Far: true}, workers)
				for l := uint(2); l <= order; l++ {
					want := upperILPairs(tree, l)
					if got := ilRanks(ix, pl, l); !mapsEqual(got, want) {
						t.Fatalf("%s n=%d l=%d workers=%d: IL multiset mismatch (got %d pairs, want %d)",
							curve.Name(), tc.n, l, workers, count(got), count(want))
					}
				}
			}
		}
	}
}

// TestDenseGridAllLevels fills the grid completely so every IL and
// neighbor relation exists, catching off-by-ones the sparse sets miss.
func TestDenseGridAllLevels(t *testing.T) {
	const order = 3
	side := geom.Side(order)
	pts := make([]geom.Point, 0, side*side)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(nil, set, sfc.Hilbert, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix := a.KeyIndex()
	tree := rankTree(a)
	pl := set.Plan(nil, keynav.Spec{Radius: 1, Metric: geom.MetricChebyshev, Far: true}, 1)
	for l := uint(2); l <= order; l++ {
		want := upperILPairs(tree, l)
		if got := ilRanks(ix, pl, l); !mapsEqual(got, want) {
			t.Fatalf("dense l=%d: IL multiset mismatch (got %d pairs, want %d)", l, count(got), count(want))
		}
	}
	ranks := newRankMap(a)
	want := map[uint64]int{}
	for _, pt := range pts {
		geom.VisitUpperNeighborhood(pt, 1, geom.MetricChebyshev, side, func(q geom.Point) {
			want[pairKey(ranks.at(pt), ranks.at(q))]++
		})
	}
	if got := nearRanks(ix, pl, 1, geom.MetricChebyshev); !mapsEqual(got, want) {
		t.Fatal("dense: near-field multiset mismatch")
	}
}

// TestPlanWorkerInvariance requires the pair sequences sets of the same
// particles record at different worker counts — not just their
// multisets — to be identical (the chunking may differ), on dense and
// sparse uniform, normal and exponential sets, for the r = 1 near field
// (the finest adjacency) and a wider one (crossed particle runs).
func TestPlanWorkerInvariance(t *testing.T) {
	for _, tc := range []struct {
		d     dist.Sampler
		order uint
		n     int
	}{
		{dist.Uniform, 7, 4000}, {dist.Uniform, 12, 3000},
		{dist.Normal, 8, 4000}, {dist.Normal, 12, 3000},
		{dist.Exponential, 8, 4000}, {dist.Exponential, 12, 3000},
	} {
		pts, err := dist.SampleUnique(tc.d, rng.New(37), tc.order, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range []keynav.Spec{
			{Radius: 1, Metric: geom.MetricChebyshev, Far: true},
			{Radius: 2, Metric: geom.MetricManhattan, Far: true},
		} {
			record := func(workers int) *keynav.Plan {
				set, err := keynav.NewSet(nil, tc.order, pts)
				if err != nil {
					t.Fatal(err)
				}
				return set.Plan(nil, spec, workers)
			}
			base := record(1)
			for _, workers := range []int{2, 3, 8} {
				pl := record(workers)
				if !slices.Equal(slices.Concat(pl.Near(spec.Radius, spec.Metric)...), slices.Concat(base.Near(spec.Radius, spec.Metric)...)) {
					t.Fatalf("%s order %d r=%d workers=%d: near-field pairs differ from the one-worker plan", tc.d.Name(), tc.order, spec.Radius, workers)
				}
				for l := uint(2); l <= tc.order; l++ {
					if !slices.Equal(slices.Concat(pl.IL(l)...), slices.Concat(base.IL(l)...)) {
						t.Fatalf("%s order %d r=%d workers=%d l=%d: IL pairs differ from the one-worker plan", tc.d.Name(), tc.order, spec.Radius, workers, l)
					}
				}
			}
		}
	}
}

// TestPlanRejectsUnrecordedFamilies pins the plan's guard: it panics
// when asked for a neighborhood or a far field it did not record.
func TestPlanRejectsUnrecordedFamilies(t *testing.T) {
	pts := samplePoints(t, 6, 500, 41)
	set, err := keynav.NewSet(nil, 6, pts)
	if err != nil {
		t.Fatal(err)
	}
	pl := set.Plan(nil, keynav.Spec{Radius: 1, Metric: geom.MetricChebyshev}, 2)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	mustPanic("other radius", func() { pl.Near(2, geom.MetricChebyshev) })
	mustPanic("other metric", func() { pl.Near(1, geom.MetricManhattan) })
	mustPanic("no far field", func() { pl.IL(2) })
}

// TestSetPlanRecordedOnce asks one set for its plans from several
// goroutines at once (run under -race in CI): every caller of a spec
// gets the one plan its first caller recorded, a plan recorded for
// both families also serves either alone, and another neighborhood
// records its own plan.
func TestSetPlanRecordedOnce(t *testing.T) {
	pts := samplePoints(t, 7, 3000, 47)
	set, err := keynav.NewSet(nil, 7, pts)
	if err != nil {
		t.Fatal(err)
	}
	plans := obs.GetCounter("keynav.plans")
	before := plans.Value()
	both := keynav.Spec{Radius: 1, Metric: geom.MetricChebyshev, Far: true}
	const goroutines = 4
	got := make([]*keynav.Plan, goroutines)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g] = set.Plan(nil, both, 2)
		}(g)
	}
	wg.Wait()
	for g, pl := range got {
		if pl != got[0] {
			t.Fatalf("goroutine %d got another plan", g)
		}
	}
	if set.Plan(nil, keynav.Spec{Radius: 1, Metric: geom.MetricChebyshev}, 1) != got[0] || set.Plan(nil, keynav.Spec{Far: true}, 1) != got[0] {
		t.Fatal("the near+far plan does not serve a single family")
	}
	if n := plans.Value() - before; n != 1 {
		t.Fatalf("%d plans recorded, want 1", n)
	}
	if set.Plan(nil, keynav.Spec{Radius: 2, Metric: geom.MetricChebyshev}, 1) == got[0] {
		t.Fatal("a radius-2 request replayed the radius-1 plan")
	}
	if n := plans.Value() - before; n != 2 {
		t.Fatalf("%d plans recorded, want 2", n)
	}
}

// TestNewSetRejectsBadCells pins the skeleton's input checks:
// duplicate cells (wherever they sit in the input) and cells outside
// the grid are errors, not silently merged or wrapped.
func TestNewSetRejectsBadCells(t *testing.T) {
	for name, pts := range map[string][]geom.Point{
		"duplicate":          {geom.Pt(1, 1), geom.Pt(2, 3), geom.Pt(0, 0), geom.Pt(1, 1)},
		"duplicate adjacent": {geom.Pt(3, 3), geom.Pt(3, 3)},
		"x outside":          {geom.Pt(0, 0), geom.Pt(4, 0)},
		"y outside":          {geom.Pt(0, 4)},
	} {
		if _, err := keynav.NewSet(nil, 2, pts); err == nil {
			t.Errorf("%s: NewSet accepted %v", name, pts)
		}
	}
	set, err := keynav.NewSet(nil, 2, []geom.Point{geom.Pt(3, 3), geom.Pt(0, 0)})
	if err != nil {
		t.Fatal(err)
	}
	if set.N() != 2 || set.Pos(0) != 1 || set.Pos(1) != 0 {
		t.Fatalf("N=%d Pos=(%d, %d), want 2 (1, 0)", set.N(), set.Pos(0), set.Pos(1))
	}
}

// TestFlatMatchesMap pins the 3D-facing flat index against a plain map
// on random sparse Morton3 keys, for sorted and unsorted input.
func TestFlatMatchesMap(t *testing.T) {
	const keyBits = 30 // 3D order 10
	r := rng.New(31)
	for _, presort := range []bool{false, true} {
		n := 500
		keys := make([]uint64, n)
		ranks := make([]int32, n)
		want := map[uint64]int32{}
		for i := range keys {
			k := r.Uint64() & (1<<keyBits - 1)
			for {
				if _, dup := want[k]; !dup {
					break
				}
				k = r.Uint64() & (1<<keyBits - 1)
			}
			keys[i] = k
			ranks[i] = int32(i % 7)
			want[k] = ranks[i]
		}
		if presort {
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for i, k := range keys {
				ranks[i] = want[k]
			}
		}
		f := keynav.NewFlat(keys, ranks, keyBits)
		if f.N() != n {
			t.Fatalf("Flat.N = %d, want %d", f.N(), n)
		}
		for k, wr := range want {
			if got := f.Rank(k); got != wr {
				t.Fatalf("presort=%v: Rank(%d) = %d, want %d", presort, k, got, wr)
			}
		}
		for i := 0; i < 1000; i++ {
			k := r.Uint64() & (1<<keyBits - 1)
			wr, ok := want[k]
			if !ok {
				wr = -1
			}
			if got := f.Rank(k); got != wr {
				t.Fatalf("presort=%v: probe Rank(%d) = %d, want %d", presort, k, got, wr)
			}
		}
	}
}

func mapsEqual(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func count(m map[uint64]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// BenchmarkKeyNavLookup measures the directory-search RankAt probed
// on the index directly; BenchmarkRankAt in internal/acd measures the
// same lookup through Assignment.RankAt.
func BenchmarkKeyNavLookup(b *testing.B) {
	for _, order := range []uint{8, 12} {
		const n = 15625
		set, err := keynav.NewSet(nil, order, samplePoints(b, order, n, 1))
		if err != nil {
			b.Fatal(err)
		}
		a, err := acd.Assign(nil, set, sfc.Hilbert, 64)
		if err != nil {
			b.Fatal(err)
		}
		ix := a.KeyIndex()
		pts := set.Points()
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := pts[i%n]
				if ix.RankAt(geom.Pt(p.X^1, p.Y)) >= 0 {
					hits++
				}
			}
			_ = hits
		})
	}
}

// BenchmarkKeyNavBuild measures skeleton construction at table12 scale
// (order 8, n = 15,625) from Hilbert-ordered input, and labelling it
// (BenchmarkLabelAlong times the top-down labelling).
func BenchmarkKeyNavBuild(b *testing.B) {
	const order, n = 8, 15625
	set, err := keynav.NewSet(nil, order, samplePoints(b, order, n, 1))
	if err != nil {
		b.Fatal(err)
	}
	a, err := acd.Assign(nil, set, sfc.Hilbert, 64)
	if err != nil {
		b.Fatal(err)
	}
	sorted, _ := alongCurve(a, sfc.Hilbert)
	owners := a.Owners()
	b.Run("set", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := keynav.NewSet(nil, order, sorted); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("label", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			set.Label(owners)
		}
	})
}

// BenchmarkKeyNavILPairs measures recording one far-field plan on one
// worker: the interaction lists of every level, refined top-down from
// adjacent occupied cell pairs. The order-12 set is sparse below the
// coarse levels. Each iteration builds a fresh set, since a set
// records a spec once.
func BenchmarkKeyNavILPairs(b *testing.B) {
	for _, tc := range []struct {
		order uint
		n     int
	}{{6, 1000}, {8, 15625}, {12, 15625}} {
		pts := samplePoints(b, tc.order, tc.n, uint64(tc.n))
		b.Run(fmt.Sprintf("order%d_n%d", tc.order, tc.n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				set, err := keynav.NewSet(nil, tc.order, pts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				set.Plan(nil, keynav.Spec{Far: true}, 1)
			}
		})
	}
}
