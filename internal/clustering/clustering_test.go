package clustering

import (
	"testing"

	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

func TestClustersFullGridIsOne(t *testing.T) {
	// The whole grid is one cluster under any bijective curve.
	for _, c := range sfc.Extended() {
		r := Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(7, 7)}
		if got := Clusters(c, 3, r); got != 1 {
			t.Errorf("%s: full grid clusters = %d", c.Name(), got)
		}
	}
}

func TestClustersSingleCell(t *testing.T) {
	for _, c := range sfc.Extended() {
		r := Rect{Lo: geom.Pt(3, 5), Hi: geom.Pt(3, 5)}
		if got := Clusters(c, 3, r); got != 1 {
			t.Errorf("%s: single cell clusters = %d", c.Name(), got)
		}
	}
}

func TestClustersRowMajorColumnQuery(t *testing.T) {
	// Under the paper's row-major (x-major) order, a full column
	// (fixed x) is one run; a full row (fixed y) is side runs.
	const order = 3
	side := geom.Side(order)
	col := Rect{Lo: geom.Pt(2, 0), Hi: geom.Pt(2, side-1)}
	if got := Clusters(sfc.RowMajor, order, col); got != 1 {
		t.Errorf("column query clusters = %d, want 1", got)
	}
	row := Rect{Lo: geom.Pt(0, 2), Hi: geom.Pt(side-1, 2)}
	if got := Clusters(sfc.RowMajor, order, row); got != int(side) {
		t.Errorf("row query clusters = %d, want %d", got, side)
	}
}

func TestClustersKnownHilbertQuadrant(t *testing.T) {
	// An aligned quadrant is a contiguous Hilbert (and Z, and Gray)
	// range: exactly one cluster.
	const order = 4
	half := geom.Side(order) / 2
	quad := Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(half-1, half-1)}
	for _, c := range []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray} {
		if got := Clusters(c, order, quad); got != 1 {
			t.Errorf("%s: aligned quadrant clusters = %d", c.Name(), got)
		}
	}
}

func TestHilbertBeatsZCurveOnAverage(t *testing.T) {
	// The classical result (Jagadish 1990): Hilbert needs fewer
	// clusters than the Z-curve and Gray order for range queries —
	// the counterpoint to the paper's ANNS finding.
	const order = 6
	for _, qs := range []uint32{4, 8} {
		h := ExactAverageClusters(sfc.Hilbert, order, qs)
		z := ExactAverageClusters(sfc.Morton, order, qs)
		g := ExactAverageClusters(sfc.Gray, order, qs)
		if h >= z {
			t.Errorf("query %d: hilbert %f >= z %f", qs, h, z)
		}
		if h >= g {
			t.Errorf("query %d: hilbert %f >= gray %f", qs, h, g)
		}
	}
}

func TestAverageConvergesToExact(t *testing.T) {
	const order, qs = 5, 4
	exact := ExactAverageClusters(sfc.Hilbert, order, qs)
	est := AverageClusters(sfc.Hilbert, order, qs, 20000, rng.New(1))
	if diff := est - exact; diff > 0.1 || diff < -0.1 {
		t.Errorf("estimate %f vs exact %f", est, exact)
	}
}

func TestRandomQueryInBounds(t *testing.T) {
	r := rng.New(2)
	const order = 5
	for i := 0; i < 1000; i++ {
		q := RandomQuery(r, order, 7)
		if !q.Valid(order) {
			t.Fatalf("invalid query %v", q)
		}
		if q.Cells() != 49 {
			t.Fatalf("query cells = %d", q.Cells())
		}
	}
}

func TestRectHelpers(t *testing.T) {
	r := Rect{Lo: geom.Pt(1, 2), Hi: geom.Pt(3, 5)}
	if !r.Valid(3) || r.Cells() != 12 {
		t.Fatalf("rect helpers wrong: valid=%v cells=%d", r.Valid(3), r.Cells())
	}
	bad := Rect{Lo: geom.Pt(5, 0), Hi: geom.Pt(3, 0)}
	if bad.Valid(3) {
		t.Error("inverted rect valid")
	}
	outside := Rect{Lo: geom.Pt(0, 0), Hi: geom.Pt(8, 0)}
	if outside.Valid(3) {
		t.Error("out-of-grid rect valid")
	}
}

func TestRandomRectQueryBounds(t *testing.T) {
	r := rng.New(6)
	for i := 0; i < 500; i++ {
		q := RandomRectQuery(r, 5, 7, 3)
		if !q.Valid(5) || q.Cells() != 21 {
			t.Fatalf("bad rect %v", q)
		}
	}
}

func TestPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { Clusters(sfc.Hilbert, 3, Rect{Lo: geom.Pt(4, 0), Hi: geom.Pt(2, 0)}) },
		func() { RandomQuery(rng.New(1), 3, 0) },
		func() { RandomQuery(rng.New(1), 3, 9) },
		func() { AverageClusters(sfc.Hilbert, 3, 2, 0, rng.New(1)) },
		func() { ExactAverageClusters(sfc.Hilbert, 3, 9) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// ExactAverageClusters computes the exact expected cluster count over
// all positions of a querySide x querySide window (feasible for small
// grids; used to validate the Monte Carlo estimator).
func ExactAverageClusters(c sfc.Curve, order uint, querySide uint32) float64 {
	side := geom.Side(order)
	if querySide < 1 || querySide > side {
		panic("clustering: query side outside grid")
	}
	sum := 0
	n := 0
	for y := uint32(0); y+querySide <= side; y++ {
		for x := uint32(0); x+querySide <= side; x++ {
			sum += Clusters(c, order, Rect{
				Lo: geom.Pt(x, y),
				Hi: geom.Pt(x+querySide-1, y+querySide-1),
			})
			n++
		}
	}
	return float64(sum) / float64(n)
}
