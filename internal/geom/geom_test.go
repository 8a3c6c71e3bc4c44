package geom

import (
	"testing"
	"testing/quick"
)

func TestManhattan(t *testing.T) {
	cases := []struct {
		a, b Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{1, 0}, 1},
		{Point{0, 0}, Point{0, 1}, 1},
		{Point{0, 0}, Point{1, 1}, 2},
		{Point{3, 7}, Point{7, 3}, 8},
		{Point{10, 10}, Point{2, 4}, 14},
	}
	for _, c := range cases {
		if got := Manhattan(c.a, c.b); got != c.want {
			t.Errorf("Manhattan(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := Manhattan(c.b, c.a); got != c.want {
			t.Errorf("Manhattan not symmetric for %v,%v", c.a, c.b)
		}
	}
}

func TestChebyshev(t *testing.T) {
	cases := []struct {
		a, b Point
		want int
	}{
		{Point{0, 0}, Point{0, 0}, 0},
		{Point{0, 0}, Point{1, 1}, 1},
		{Point{0, 0}, Point{2, 1}, 2},
		{Point{5, 5}, Point{1, 9}, 4},
	}
	for _, c := range cases {
		if got := Chebyshev(c.a, c.b); got != c.want {
			t.Errorf("Chebyshev(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestMetricDist(t *testing.T) {
	a, b := Point{0, 0}, Point{2, 3}
	if got := MetricManhattan.Dist(a, b); got != 5 {
		t.Errorf("manhattan dist = %d, want 5", got)
	}
	if got := MetricChebyshev.Dist(a, b); got != 3 {
		t.Errorf("chebyshev dist = %d, want 3", got)
	}
}

func TestMetricString(t *testing.T) {
	if MetricChebyshev.String() != "chebyshev" || MetricManhattan.String() != "manhattan" {
		t.Errorf("unexpected metric names %q %q", MetricChebyshev, MetricManhattan)
	}
	if Metric(9).String() != "metric(9)" {
		t.Errorf("fallback name = %q", Metric(9))
	}
}

func TestDistanceProperties(t *testing.T) {
	// Symmetry, identity, and triangle inequality for both metrics.
	check := func(ax, ay, bx, by, cx, cy uint16) bool {
		a := Point{uint32(ax), uint32(ay)}
		b := Point{uint32(bx), uint32(by)}
		c := Point{uint32(cx), uint32(cy)}
		for _, m := range []Metric{MetricChebyshev, MetricManhattan} {
			if m.Dist(a, b) != m.Dist(b, a) {
				return false
			}
			if m.Dist(a, a) != 0 {
				return false
			}
			if m.Dist(a, b) > m.Dist(a, c)+m.Dist(c, b) {
				return false
			}
		}
		// Chebyshev <= Manhattan <= 2*Chebyshev in 2D.
		ch, mh := Chebyshev(a, b), Manhattan(a, b)
		return ch <= mh && mh <= 2*ch
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSideCells(t *testing.T) {
	if Side(0) != 1 || Side(3) != 8 || Side(10) != 1024 {
		t.Fatalf("Side wrong: %d %d %d", Side(0), Side(3), Side(10))
	}
	if Cells(0) != 1 || Cells(3) != 64 || Cells(10) != 1<<20 {
		t.Fatalf("Cells wrong")
	}
}

func TestSidePanicsBeyond31(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Side(32) did not panic")
		}
	}()
	Side(32)
}

func TestInBounds(t *testing.T) {
	if !InBounds(0, 0, 4) || !InBounds(3, 3, 4) {
		t.Error("corner cells should be in bounds")
	}
	for _, bad := range [][2]int{{-1, 0}, {0, -1}, {4, 0}, {0, 4}} {
		if InBounds(bad[0], bad[1], 4) {
			t.Errorf("(%d,%d) should be out of bounds", bad[0], bad[1])
		}
	}
}

func TestCellIDRoundTrip(t *testing.T) {
	const side = 16
	seen := make(map[uint64]bool)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			p := Point{x, y}
			id := CellID(p, side)
			if seen[id] {
				t.Fatalf("duplicate cell id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != side*side {
		t.Fatalf("expected %d ids, got %d", side*side, len(seen))
	}
}

func TestVisitNeighborhoodMatchesBruteForce(t *testing.T) {
	const side = 9
	for _, m := range []Metric{MetricChebyshev, MetricManhattan} {
		for _, r := range []int{1, 2, 3} {
			for _, p := range []Point{{0, 0}, {4, 4}, {8, 8}, {0, 4}, {8, 3}} {
				want := make(map[Point]bool)
				for y := uint32(0); y < side; y++ {
					for x := uint32(0); x < side; x++ {
						q := Point{x, y}
						if q != p && m.Dist(p, q) <= r {
							want[q] = true
						}
					}
				}
				got := make(map[Point]bool)
				VisitNeighborhood(p, r, m, side, func(q Point) {
					if got[q] {
						t.Fatalf("%v visited twice (m=%v r=%d p=%v)", q, m, r, p)
					}
					got[q] = true
				})
				if len(got) != len(want) {
					t.Fatalf("m=%v r=%d p=%v: got %d neighbors, want %d", m, r, p, len(got), len(want))
				}
				for q := range want {
					if !got[q] {
						t.Fatalf("m=%v r=%d p=%v: missing neighbor %v", m, r, p, q)
					}
				}
			}
		}
	}
}

func TestVisitNeighborhoodZeroRadius(t *testing.T) {
	count := 0
	VisitNeighborhood(Point{2, 2}, 0, MetricChebyshev, 8, func(Point) { count++ })
	if count != 0 {
		t.Errorf("r=0 visited %d cells, want 0", count)
	}
}

func TestNeighborhoodSize(t *testing.T) {
	// Interior point on a large grid must see exactly NeighborhoodSize
	// neighbors.
	const side = 64
	p := Point{32, 32}
	for _, m := range []Metric{MetricChebyshev, MetricManhattan} {
		for r := 1; r <= 6; r++ {
			count := 0
			VisitNeighborhood(p, r, m, side, func(Point) { count++ })
			if count != NeighborhoodSize(r, m) {
				t.Errorf("m=%v r=%d: iterator saw %d, NeighborhoodSize says %d",
					m, r, count, NeighborhoodSize(r, m))
			}
		}
	}
	if NeighborhoodSize(0, MetricManhattan) != 0 {
		t.Error("NeighborhoodSize(0) != 0")
	}
	// r=1: Chebyshev ball has the paper's 8 edge/corner neighbors.
	if NeighborhoodSize(1, MetricChebyshev) != 8 {
		t.Errorf("Chebyshev r=1 size = %d, want 8", NeighborhoodSize(1, MetricChebyshev))
	}
	if NeighborhoodSize(1, MetricManhattan) != 4 {
		t.Errorf("Manhattan r=1 size = %d, want 4", NeighborhoodSize(1, MetricManhattan))
	}
}

func TestPointString(t *testing.T) {
	if s := (Point{3, 5}).String(); s != "(3,5)" {
		t.Errorf("String = %q", s)
	}
}

// TestVisitUpperNeighborhoodPartition: the union of each point's upper
// neighborhood and its mirror (upper visits *of* other points that land
// on it) is exactly VisitNeighborhood — the upper traversal partitions
// the symmetric relation into unordered pairs.
func TestVisitUpperNeighborhoodPartition(t *testing.T) {
	for _, m := range []Metric{MetricChebyshev, MetricManhattan} {
		for _, r := range []int{1, 2, 3} {
			const side = 7
			full := map[[4]uint32]int{}
			half := map[[4]uint32]int{}
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					p := Pt(x, y)
					VisitNeighborhood(p, r, m, side, func(q Point) {
						full[[4]uint32{p.X, p.Y, q.X, q.Y}]++
					})
					VisitUpperNeighborhood(p, r, m, side, func(q Point) {
						half[[4]uint32{p.X, p.Y, q.X, q.Y}]++
						half[[4]uint32{q.X, q.Y, p.X, p.Y}]++
					})
				}
			}
			if len(full) != len(half) {
				t.Fatalf("%v r=%d: %d ordered visits from full, %d from upper closure", m, r, len(full), len(half))
			}
			for k, n := range full {
				if half[k] != n {
					t.Fatalf("%v r=%d: visit %v count %d via upper, want %d", m, r, k, half[k], n)
				}
			}
		}
	}
}

// TestVisitUpperNeighborhoodBoundary pins the reference clamping
// semantics at the domain edges against a brute-force oracle: the
// key-space engine's dilated-integer enumeration must clamp exactly
// the same way, so any change here is a breaking change for it. Cases
// include cells within radius of every edge and corner, radius equal
// to the side, and radius beyond it.
func TestVisitUpperNeighborhoodBoundary(t *testing.T) {
	for _, side := range []uint32{1, 2, 4, 8} {
		for _, m := range []Metric{MetricChebyshev, MetricManhattan} {
			for _, r := range []int{1, 2, int(side) - 1, int(side), int(side) + 2, 2 * int(side)} {
				if r < 1 {
					continue
				}
				for y := uint32(0); y < side; y++ {
					for x := uint32(0); x < side; x++ {
						p := Pt(x, y)
						// Brute-force oracle: every in-bounds q after p in
						// row-major order within distance r.
						want := map[Point]bool{}
						for qy := uint32(0); qy < side; qy++ {
							for qx := uint32(0); qx < side; qx++ {
								q := Pt(qx, qy)
								after := qy > y || (qy == y && qx > x)
								if after && m.Dist(p, q) <= r {
									want[q] = true
								}
							}
						}
						got := map[Point]bool{}
						VisitUpperNeighborhood(p, r, m, side, func(q Point) {
							if got[q] {
								t.Fatalf("side=%d %v r=%d p=%v: q=%v visited twice", side, m, r, p, q)
							}
							got[q] = true
						})
						if len(got) != len(want) {
							t.Fatalf("side=%d %v r=%d p=%v: visited %d cells, want %d", side, m, r, p, len(got), len(want))
						}
						for q := range want {
							if !got[q] {
								t.Fatalf("side=%d %v r=%d p=%v: missed %v", side, m, r, p, q)
							}
						}
					}
				}
			}
		}
	}
}

// TestVisitUpperNeighborhoodOrder pins the exact visit sequence (row
// by row upward, left to right): deterministic reduction order
// elsewhere relies on it.
func TestVisitUpperNeighborhoodOrder(t *testing.T) {
	var seq []Point
	VisitUpperNeighborhood(Pt(1, 1), 1, MetricChebyshev, 4, func(q Point) {
		seq = append(seq, q)
	})
	want := []Point{Pt(2, 1), Pt(0, 2), Pt(1, 2), Pt(2, 2)}
	if len(seq) != len(want) {
		t.Fatalf("visited %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("visit %d = %v, want %v (full: %v)", i, seq[i], want[i], seq)
		}
	}
	// Radius >= side from the origin covers the whole remaining grid.
	seq = seq[:0]
	VisitUpperNeighborhood(Pt(0, 0), 4, MetricChebyshev, 2, func(q Point) {
		seq = append(seq, q)
	})
	want = []Point{Pt(1, 0), Pt(0, 1), Pt(1, 1)}
	for i := range want {
		if i >= len(seq) || seq[i] != want[i] {
			t.Fatalf("origin sweep visited %v, want %v", seq, want)
		}
	}
}
