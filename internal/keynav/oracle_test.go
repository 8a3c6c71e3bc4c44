package keynav

import (
	"fmt"
	"slices"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// The probe enumerations below are the recorder's oracle: they find
// every neighbor by searching for its key, cell by cell. They know
// nothing of child tables, adjacency lists or particle runs, and they
// reach every order a set can have, where a dense quadtree oracle
// cannot.

// probe returns the slab position of cell (x, y) at level l, or -1 if
// it is empty or outside the grid.
func probe(s *Set, l uint, x, y int) int32 {
	side := int(geom.Side(l))
	if x < 0 || y < 0 || x >= side || y >= side {
		return -1
	}
	if i, ok := slices.BinarySearch(s.lv[l].keys, sfc.MortonKey(uint32(x), uint32(y))); ok {
		return int32(i)
	}
	return -1
}

// cellAt decodes the cell at slab position i of level l.
func cellAt(s *Set, l uint, i int32) geom.Point {
	return sfc.Morton.Point(l, s.lv[l].keys[i])
}

// upperNeighborPairs is the near-field oracle: for every particle
// position i, a Pair{i, j} for every occupied cell j within radius of
// i's cell that follows it in row-major order. It probes each cell of
// i's upper neighborhood; when that neighborhood has more cells than
// the set has particles, it checks every particle instead.
func upperNeighborPairs(s *Set, radius int, m geom.Metric) []Pair {
	var out []Pair
	if radius <= 0 {
		return out
	}
	n, side := s.N(), geom.Side(s.Order)
	for i := range int32(n) {
		p := cellAt(s, s.Order, i)
		if (radius+1)*(2*radius+1) <= n {
			geom.VisitUpperNeighborhood(p, radius, m, side, func(q geom.Point) {
				if j := probe(s, s.Order, int(q.X), int(q.Y)); j >= 0 {
					out = append(out, Pair{i, j})
				}
			})
			continue
		}
		for j := range int32(n) {
			q := cellAt(s, s.Order, j)
			if (q.Y > p.Y || q.Y == p.Y && q.X > p.X) && m.Dist(p, q) <= radius {
				out = append(out, Pair{i, j})
			}
		}
	}
	return out
}

// upperILPairs is the interaction-list oracle at level l >= 2: for
// every occupied cell of level l-1 and each of its four row-major-upper
// neighbors found by probing, the pairs of their children beyond
// Chebyshev distance 1, the lower parent's child first.
func upperILPairs(s *Set, l uint) []Pair {
	var out []Pair
	par, start := &s.lv[l-1], s.lv[l-1].childStart
	for j := range int32(len(par.keys)) {
		p := cellAt(s, l-1, j)
		for _, off := range [4][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
			q := probe(s, l-1, int(p.X)+off[0], int(p.Y)+off[1])
			if q < 0 {
				continue
			}
			for a := start[j]; a < start[j+1]; a++ {
				for b := start[q]; b < start[q+1]; b++ {
					if geom.Chebyshev(cellAt(s, l, a), cellAt(s, l, b)) > 1 {
						out = append(out, Pair{a, b})
					}
				}
			}
		}
	}
	return out
}

// oracleSets returns the particle sets the oracle test covers at an
// order: uniform, normal and exponential samples, the full grid where
// it is small, and the empty and one-particle sets.
func oracleSets(t *testing.T, order uint) map[string][]geom.Point {
	t.Helper()
	cells := int(geom.Cells(order))
	sets := map[string][]geom.Point{"empty": nil, "single": {geom.Pt(geom.Side(order)-1, 0)}}
	for _, d := range dist.All() {
		pts, err := dist.SampleUnique(d, rng.New(uint64(order)+53), order, max(min(cells/2, 250), 1))
		if err != nil {
			t.Fatal(err)
		}
		sets[d.Name()] = pts
	}
	if order <= 4 {
		var full []geom.Point
		for y := range geom.Side(order) {
			for x := range geom.Side(order) {
				full = append(full, geom.Pt(x, y))
			}
		}
		sets["full"] = full
	}
	return sets
}

// sortedPairs returns pairs as a sorted multiset of ordered pairs.
func sortedPairs(pairs []Pair) []uint64 {
	keys := make([]uint64, len(pairs))
	for i, pr := range pairs {
		keys[i] = uint64(uint32(pr.A))<<32 | uint64(uint32(pr.B))
	}
	slices.Sort(keys)
	return keys
}

// samePairs reports whether a plan's chunks hold exactly the pairs of
// want, a sortedPairs multiset.
func samePairs(chunks [][]Pair, want []uint64) bool {
	return slices.Equal(sortedPairs(slices.Concat(chunks...)), want)
}

// TestPlanMatchesProbeOracle holds every recorded plan to the probe
// enumerations, multiset-exact per family and level: orders 1–12,
// uniform, normal, exponential, full, empty and one-particle sets,
// radii 1, 2, 3, 4, 8, the grid side and beyond it under both metrics,
// near-field plans alone and with the far field, and recording worker
// counts 1, 2 and 7.
func TestPlanMatchesProbeOracle(t *testing.T) {
	for order := uint(1); order <= 12; order++ {
		side := int(geom.Side(order))
		radii := []int{1, 2, 3, 4, 8, side, side + 3}
		slices.Sort(radii)
		radii = slices.Compact(radii)
		for name, pts := range oracleSets(t, order) {
			ref, err := NewSet(nil, order, pts)
			if err != nil {
				t.Fatal(err)
			}
			il := make([][]uint64, order+1)
			for l := uint(2); l <= order; l++ {
				il[l] = sortedPairs(upperILPairs(ref, l))
			}
			for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
				for _, radius := range radii {
					near := sortedPairs(upperNeighborPairs(ref, radius, m))
					for _, workers := range []int{1, 2, 7} {
						for _, far := range []bool{false, true} {
							// A fresh set records the plan at this worker count.
							set, err := NewSet(nil, order, pts)
							if err != nil {
								t.Fatal(err)
							}
							pl := set.Plan(nil, Spec{Radius: radius, Metric: m, Far: far}, workers)
							where := fmt.Sprintf("order %d %s r=%d %s far=%v workers=%d", order, name, radius, m, far, workers)
							if !samePairs(pl.Near(radius, m), near) {
								t.Fatalf("%s: near-field pairs differ from the probe oracle's %d", where, len(near))
							}
							if !far {
								continue
							}
							for l := uint(0); l <= order; l++ {
								if !samePairs(pl.IL(l), il[l]) {
									t.Fatalf("%s: level %d interaction-list pairs differ from the probe oracle's %d", where, l, len(il[l]))
								}
							}
						}
					}
				}
			}
		}
	}
}
