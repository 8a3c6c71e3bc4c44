package keynav_test

import (
	"fmt"
	"sort"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// quadtree.RankTree and a cell->rank map built from the assignment's
// arrays are the differential oracles: every query family of the
// key-space engine is pinned here to exact equality —
// same ranks, same representative per cell, same event multisets —
// across curves (sorted and unsorted key input), seeds, and radii.

func buildAssignment(t *testing.T, curve sfc.Curve, order uint, n, p int, seed uint64) *acd.Assignment {
	t.Helper()
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var testCurves = []sfc.Curve{sfc.RowMajor, sfc.Morton, sfc.Gray, sfc.Hilbert}

// rankMap is the finest-level oracle: a cell->rank map built from the
// assignment's parallel arrays. (acd.Assignment.RankAt answers through
// the index itself, so it cannot serve as the reference.)
type rankMap map[geom.Point]int32

func newRankMap(a *acd.Assignment) rankMap {
	m := make(rankMap, a.N())
	for i, pt := range a.Particles {
		m[pt] = a.Ranks[i]
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
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
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
		ix.Release()
	}
}

// TestIndexRepMatchesRankTree probes every cell of every level against
// the quadtree representative slab.
func TestIndexRepMatchesRankTree(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 11)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		tree := quadtree.BuildRankTree(a.Order, a.Particles, a.Ranks)
		for l := uint(0); l <= order; l++ {
			side := geom.Side(l)
			occupied := 0
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					got, want := ix.Rep(l, x, y), tree.Rep(l, x, y)
					if got != want {
						t.Fatalf("%s: Rep(%d,%d,%d) = %d, oracle %d", curve.Name(), l, x, y, got, want)
					}
					if got >= 0 {
						occupied++
					}
				}
			}
			if ix.LevelLen(l) != occupied {
				t.Fatalf("%s: LevelLen(%d) = %d, oracle %d", curve.Name(), l, ix.LevelLen(l), occupied)
			}
		}
		ix.Release()
	}
}

// pairKey canonicalizes an unordered rank pair for multiset counting.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// TestVisitUpperNeighborPairsMatchesOracle compares the near-field
// upper event multiset against geom.VisitUpperNeighborhood probing a
// cell->rank map,
// across metrics, radii (including radius beyond the grid side), and
// worker-style chunkings of the particle range.
func TestVisitUpperNeighborPairsMatchesOracle(t *testing.T) {
	const order, n, p = 5, 300, 16
	side := geom.Side(order)
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 13)
		ranks := newRankMap(a)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			for _, radius := range []int{0, 1, 2, 3, int(side), int(side) + 3} {
				want := map[uint64]int{}
				for i, pt := range a.Particles {
					mine := a.Ranks[i]
					geom.VisitUpperNeighborhood(pt, radius, m, side, func(q geom.Point) {
						if r := ranks.at(q); r >= 0 {
							want[pairKey(mine, r)]++
						}
					})
				}
				for _, chunk := range []int{a.N(), 1, 7} {
					got := map[uint64]int{}
					for lo := 0; lo < a.N(); lo += chunk {
						hi := min(lo+chunk, a.N())
						ix.VisitUpperNeighborPairs(lo, hi, radius, m, func(rank, nb int32) {
							got[pairKey(rank, nb)]++
						})
					}
					if !mapsEqual(got, want) {
						t.Fatalf("%s %s r=%d chunk=%d: near-field multiset mismatch (got %d keys, want %d)",
							curve.Name(), m, radius, chunk, len(got), len(want))
					}
				}
			}
		}
		ix.Release()
	}
}

// TestVisitParentLinksMatchesTree compares the interpolation link
// multiset per level against the quadtree cell walk.
func TestVisitParentLinksMatchesTree(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 17)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		tree := quadtree.BuildRankTree(a.Order, a.Particles, a.Ranks)
		for l := uint(1); l <= order; l++ {
			want := map[uint64]int{}
			tree.VisitCells(l, func(x, y uint32, rep int32) {
				want[pairKey(tree.Rep(l-1, x/2, y/2), rep)]++
			})
			for _, chunk := range []int{ix.LevelLen(l), 1, 5} {
				got := map[uint64]int{}
				for lo := 0; lo < ix.LevelLen(l); lo += chunk {
					hi := min(lo+chunk, ix.LevelLen(l))
					ix.VisitParentLinks(l, lo, hi, func(parent, rep int32) {
						got[pairKey(parent, rep)]++
					})
				}
				if !mapsEqual(got, want) {
					t.Fatalf("%s l=%d chunk=%d: parent-link multiset mismatch", curve.Name(), l, chunk)
				}
			}
		}
		ix.Release()
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
// multiset per level against the quadtree enumeration, both full-range
// and chunked over parent positions.
func TestVisitUpperILPairsMatchesTree(t *testing.T) {
	const order = 5
	for _, curve := range testCurves {
		for _, tc := range []struct {
			n, p int
			seed uint64
		}{{300, 16, 19}, {12, 4, 23}, {1, 1, 29}} {
			a := buildAssignment(t, curve, order, tc.n, tc.p, tc.seed)
			ix := keynav.Build(a.Order, a.Particles, a.Ranks)
			tree := quadtree.BuildRankTree(a.Order, a.Particles, a.Ranks)
			for l := uint(2); l <= order; l++ {
				want := upperILPairs(tree, l)
				plen := ix.LevelLen(l - 1)
				for _, chunk := range []int{plen, 1, 3} {
					got := map[uint64]int{}
					for lo := 0; lo < plen; lo += chunk {
						hi := min(lo+chunk, plen)
						ix.VisitUpperILPairs(l, lo, hi, func(rep, other int32) {
							got[pairKey(rep, other)]++
						})
					}
					if !mapsEqual(got, want) {
						t.Fatalf("%s n=%d l=%d chunk=%d: IL multiset mismatch (got %d pairs, want %d)",
							curve.Name(), tc.n, l, chunk, count(got), count(want))
					}
				}
			}
			ix.Release()
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
	a, err := acd.Assign(pts, sfc.Hilbert, order, 8)
	if err != nil {
		t.Fatal(err)
	}
	ix := keynav.Build(a.Order, a.Particles, a.Ranks)
	tree := quadtree.BuildRankTree(a.Order, a.Particles, a.Ranks)
	for l := uint(2); l <= order; l++ {
		want := upperILPairs(tree, l)
		got := map[uint64]int{}
		ix.VisitUpperILPairs(l, 0, ix.LevelLen(l-1), func(rep, other int32) {
			got[pairKey(rep, other)]++
		})
		if !mapsEqual(got, want) {
			t.Fatalf("dense l=%d: IL multiset mismatch (got %d pairs, want %d)", l, count(got), count(want))
		}
	}
	ranks := newRankMap(a)
	want := map[uint64]int{}
	for i, pt := range a.Particles {
		geom.VisitUpperNeighborhood(pt, 1, geom.MetricChebyshev, side, func(q geom.Point) {
			want[pairKey(a.Ranks[i], ranks.at(q))]++
		})
	}
	got := map[uint64]int{}
	ix.VisitUpperNeighborPairs(0, a.N(), 1, geom.MetricChebyshev, func(rank, nb int32) {
		got[pairKey(rank, nb)]++
	})
	if !mapsEqual(got, want) {
		t.Fatal("dense: near-field multiset mismatch")
	}
	ix.Release()
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
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
		if err != nil {
			b.Fatal(err)
		}
		a, err := acd.Assign(pts, sfc.Hilbert, order, 64)
		if err != nil {
			b.Fatal(err)
		}
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := a.Particles[i%n]
				if ix.RankAt(geom.Pt(p.X^1, p.Y)) >= 0 {
					hits++
				}
			}
			_ = hits
		})
		ix.Release()
	}
}

// BenchmarkKeyNavBuild measures index construction at table12 scale
// (order 8, n = 15,625).
func BenchmarkKeyNavBuild(b *testing.B) {
	const order, n = 8, 15625
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Hilbert, order, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		ix.Release()
	}
}

// BenchmarkKeyNavILPairs measures one full interaction-list sweep over
// every level, enumerated from adjacent occupied parent pairs — the
// commmat.build.ffi hot loop.
func BenchmarkKeyNavILPairs(b *testing.B) {
	for _, tc := range []struct {
		order uint
		n     int
	}{{6, 1000}, {8, 15625}} {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(tc.n)), tc.order, tc.n)
		if err != nil {
			b.Fatal(err)
		}
		a, err := acd.Assign(pts, sfc.Hilbert, tc.order, 64)
		if err != nil {
			b.Fatal(err)
		}
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		b.Run(fmt.Sprintf("order%d_n%d", tc.order, tc.n), func(b *testing.B) {
			var events int
			for i := 0; i < b.N; i++ {
				for l := uint(2); l <= ix.Order; l++ {
					ix.VisitUpperILPairs(l, 0, ix.LevelLen(l-1), func(rep, other int32) {
						events++
					})
				}
			}
			_ = events
		})
		ix.Release()
	}
}
