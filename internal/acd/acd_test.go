package acd

import (
	"slices"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/partition"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// assignPoints is Assign over a private set of pts.
func assignPoints(pts []geom.Point, curve sfc.Curve, order uint, p int) (*Assignment, error) {
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		return nil, err
	}
	return Assign(nil, set, curve, p)
}

// alongCurve returns a's owners in the order curve c visits its set's
// points: ranks[k] owns the k-th point along c.
func alongCurve(a *Assignment, c sfc.Curve) []int32 {
	owners := a.Owners()
	perm := sfc.SortPoints(c, a.Order, a.KeyIndex().Set().Points())
	ranks := make([]int32, len(perm))
	for k, i := range perm {
		ranks[k] = owners[i]
	}
	return ranks
}

// ownersPoints is FromOwners over a private set of pts.
func ownersPoints(pts []geom.Point, ranks []int32, order uint, p int) (*Assignment, error) {
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		return nil, err
	}
	return FromOwners(nil, set, ranks, p)
}

func TestAccumulator(t *testing.T) {
	var a Accumulator
	if a.ACD() != 0 {
		t.Error("empty accumulator ACD != 0")
	}
	a.Add(3)
	a.Add(0) // zero-hop events count
	a.Add(5)
	if a.Sum != 8 || a.Count != 3 {
		t.Fatalf("sum=%d count=%d", a.Sum, a.Count)
	}
	if got := a.ACD(); got != 8.0/3 {
		t.Errorf("ACD = %f", got)
	}
	a.AddN(2, 4)
	if a.Sum != 16 || a.Count != 7 {
		t.Fatalf("after AddN: sum=%d count=%d", a.Sum, a.Count)
	}
	var b Accumulator
	b.Add(10)
	a.Merge(b)
	if a.Sum != 26 || a.Count != 8 {
		t.Fatalf("after Merge: sum=%d count=%d", a.Sum, a.Count)
	}
	if a.String() == "" {
		t.Error("empty String")
	}
}

func fullGrid(order uint) []geom.Point {
	side := geom.Side(order)
	pts := make([]geom.Point, 0, side*side)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	return pts
}

// TestAssignOrdersAlongCurve checks, for every curve (walked or
// sorted), that the owners read along the curve are exactly the
// balanced consecutive chunks, on a full grid and a sparse set, with
// more ranks than particles too.
func TestAssignOrdersAlongCurve(t *testing.T) {
	sparse, err := dist.SampleUnique(dist.Normal, rng.New(4), 6, 300)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		order uint
		pts   []geom.Point
	}{{3, fullGrid(3)}, {6, sparse}} {
		for _, c := range sfc.Extended() {
			for _, p := range []int{1, 4, 7, len(tc.pts) + 5} {
				a, err := assignPoints(tc.pts, c, tc.order, p)
				if err != nil {
					t.Fatalf("%s: %v", c.Name(), err)
				}
				n := len(tc.pts)
				for k, r := range alongCurve(a, c) {
					if want := int32(partition.ChunkOf(k, n, p)); r != want {
						t.Fatalf("%s order %d p=%d: the %d-th particle along the curve is owned by %d, want %d",
							c.Name(), tc.order, p, k, r, want)
					}
				}
			}
		}
	}
}

func TestAssignRanksMonotoneBalanced(t *testing.T) {
	const order = 4
	r := rng.New(1)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 100)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 7)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int32]int)
	ranks := alongCurve(a, sfc.Hilbert)
	for i, rk := range ranks {
		if i > 0 && rk < ranks[i-1] {
			t.Fatalf("ranks not monotone at %d", i)
		}
		counts[rk]++
	}
	min, max := 1<<30, 0
	for _, c := range counts {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if max-min > 1 {
		t.Errorf("chunk sizes range [%d,%d]", min, max)
	}
}

func TestAssignRankAt(t *testing.T) {
	const order = 4
	r := rng.New(2)
	pts, err := dist.SampleUnique(dist.Normal, r, order, 60)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, 5)
	if err != nil {
		t.Fatal(err)
	}
	owners := a.Owners()
	for i, p := range pts {
		if got := a.RankAt(p); got != owners[i] {
			t.Fatalf("RankAt(%v) = %d, want %d", p, got, owners[i])
		}
	}
	// An unoccupied cell must report -1.
	occupied := make(map[geom.Point]bool)
	for _, p := range pts {
		occupied[p] = true
	}
	side := geom.Side(order)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			p := geom.Pt(x, y)
			if !occupied[p] && a.RankAt(p) != -1 {
				t.Fatalf("empty cell %v has rank %d", p, a.RankAt(p))
			}
		}
	}
	// Cells outside the grid are empty: x >= side must not alias onto
	// the next row, and y >= side must not index past the grid.
	for _, p := range []geom.Point{geom.Pt(side, 0), geom.Pt(0, side), geom.Pt(side, side), geom.Pt(1<<31, 1<<31)} {
		if got := a.RankAt(p); got != -1 {
			t.Fatalf("RankAt(%v) outside the %dx%d grid = %d, want -1", p, side, side, got)
		}
	}
	b, err := assignPoints([]geom.Point{geom.Pt(0, 1), geom.Pt(3, 3)}, sfc.Morton, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.RankAt(geom.Pt(4, 0)); got != -1 {
		t.Fatalf("RankAt(4,0) on a 4x4 grid = %d, want -1 (not the rank of (0,1))", got)
	}
	if got := b.RankAt(geom.Pt(0, 4)); got != -1 {
		t.Fatalf("RankAt(0,4) on a 4x4 grid = %d, want -1", got)
	}
}

func TestAssignSparseFallback(t *testing.T) {
	// Order 13 (8192x8192 = 64M cells): the lookup's memory follows the
	// 50 occupied cells, not the grid, and answers as at small orders.
	const order = 13
	r := rng.New(3)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 50)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 4)
	if err != nil {
		t.Fatal(err)
	}
	owners := a.Owners()
	for i, p := range pts {
		if got := a.RankAt(p); got != owners[i] {
			t.Fatalf("sparse RankAt(%v) = %d, want %d", p, got, owners[i])
		}
	}
	if a.RankAt(geom.Pt(0, 0)) != -1 {
		// (0,0) is almost surely unoccupied among 50 of 64M cells; if
		// it is occupied the check above already covered it.
		for _, p := range pts {
			if p == geom.Pt(0, 0) {
				return
			}
		}
		t.Fatal("empty cell lookup on sparse path did not return -1")
	}
}

func TestAssignErrors(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0)}
	if _, err := assignPoints(pts, sfc.Hilbert, 2, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := assignPoints(nil, sfc.Hilbert, 2, 4); err == nil {
		t.Error("empty particles accepted")
	}
	dup := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}
	if _, err := assignPoints(dup, sfc.Hilbert, 2, 2); err == nil {
		t.Error("duplicate cells accepted")
	}
}

func TestAssignMoreProcsThanParticles(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 3), geom.Pt(1, 2)}
	a, err := assignPoints(pts, sfc.Hilbert, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if a.P != 16 || a.N() != 3 {
		t.Fatalf("P=%d N=%d", a.P, a.N())
	}
	ranks := alongCurve(a, sfc.Hilbert)
	for i := 1; i < a.N(); i++ {
		if ranks[i] <= ranks[i-1] {
			t.Fatal("with p > n, ranks should be strictly increasing")
		}
	}
}

func TestFromOwners(t *testing.T) {
	pts := []geom.Point{geom.Pt(3, 3), geom.Pt(0, 0), geom.Pt(1, 2)}
	ranks := []int32{2, 0, 2} // non-monotone, duplicated rank
	a, err := ownersPoints(pts, ranks, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts {
		if a.RankAt(p) != ranks[i] {
			t.Fatalf("RankAt(%v) = %d, want %d", p, a.RankAt(p), ranks[i])
		}
	}
	if a.RankAt(geom.Pt(2, 2)) != -1 {
		t.Error("empty cell not -1")
	}
	// Errors.
	if _, err := ownersPoints(pts, ranks[:2], 2, 4); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := ownersPoints(pts, []int32{0, 0, 4}, 2, 4); err == nil {
		t.Error("rank out of range accepted")
	}
	if _, err := ownersPoints([]geom.Point{geom.Pt(4, 0)}, []int32{0}, 2, 4); err == nil {
		t.Error("cell outside the grid accepted")
	}
	if _, err := ownersPoints(nil, nil, 2, 4); err == nil {
		t.Error("empty accepted")
	}
	if _, err := ownersPoints(pts, ranks, 2, 0); err == nil {
		t.Error("p=0 accepted")
	}
	dup := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1)}
	if _, err := ownersPoints(dup, []int32{0, 1}, 2, 4); err == nil {
		t.Error("duplicate cells accepted")
	}
}

func TestFromOwnersMatchesAssign(t *testing.T) {
	// Feeding Assign's own output through FromOwners reproduces it.
	const order = 4
	r := rng.New(21)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 50)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ownersPoints(pts, a.Owners(), order, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if a.RankAt(p) != b.RankAt(p) {
			t.Fatalf("RankAt(%v) differs: %d vs %d", p, a.RankAt(p), b.RankAt(p))
		}
	}
}

// TestOwnersRoundTrip checks that Owners inverts FromOwners on a
// shuffled ownership, and that a released assignment has no owners.
func TestOwnersRoundTrip(t *testing.T) {
	const order, n, p = 5, 200, 9
	pts, err := dist.SampleUnique(dist.Exponential, rng.New(8), order, n)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i * 5 % p)
	}
	a, err := ownersPoints(pts, ranks, order, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Owners(); !slices.Equal(got, ranks) {
		t.Fatalf("Owners() = %v, want %v", got, ranks)
	}
	a.Release()
	if got := a.Owners(); got != nil {
		t.Fatalf("Owners() after Release = %v, want nil", got)
	}
}

func TestSideAndN(t *testing.T) {
	pts := fullGrid(3)
	a, err := assignPoints(pts, sfc.Gray, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Side() != 8 || a.N() != 64 {
		t.Fatalf("Side=%d N=%d", a.Side(), a.N())
	}
}
