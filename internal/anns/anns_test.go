package anns

import (
	"math"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/panics"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

func TestPairCountR1(t *testing.T) {
	for order := uint(1); order <= 5; order++ {
		side := geom.Side(order)
		res := Stretch(sfc.Hilbert, order, Options{Radius: 1})
		if res.Pairs != NearestNeighborPairs(side) {
			t.Fatalf("order %d: %d pairs, want %d", order, res.Pairs, NearestNeighborPairs(side))
		}
	}
}

func TestRowMajorMatchesClosedForm(t *testing.T) {
	for order := uint(1); order <= 7; order++ {
		got := Stretch(sfc.RowMajor, order, Options{Radius: 1}).Mean
		want := RowMajorExact(order)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("order %d: rowmajor ANNS %f, closed form %f", order, got, want)
		}
	}
}

func TestSnakeEqualsRowMajorANNS(t *testing.T) {
	// The snake scan has the same r=1 ANNS as row-major: vertical pairs
	// stretch 1, horizontal pairs average side.
	for order := uint(1); order <= 6; order++ {
		s := Stretch(sfc.Snake, order, Options{Radius: 1}).Mean
		r := Stretch(sfc.RowMajor, order, Options{Radius: 1}).Mean
		if math.Abs(s-r) > 1e-9 {
			t.Fatalf("order %d: snake %f != rowmajor %f", order, s, r)
		}
	}
}

func TestTwoByTwoAllCurvesEqual(t *testing.T) {
	// On the 2x2 grid every bijective order yields ANNS 1.5.
	for _, c := range sfc.Extended() {
		got := Stretch(c, 1, Options{Radius: 1}).Mean
		if math.Abs(got-1.5) > 1e-9 {
			t.Errorf("%s: 2x2 ANNS = %f, want 1.5", c.Name(), got)
		}
	}
}

func TestPaperOrderingZAndRowMajorBeatHilbertAndGray(t *testing.T) {
	// The paper's surprising §V result: in 2D, the Z-curve and
	// row-major significantly outperform Gray and Hilbert under ANNS,
	// at every resolution, and the gap grows with resolution.
	for order := uint(4); order <= 7; order++ {
		h := Stretch(sfc.Hilbert, order, Options{Radius: 1}).Mean
		z := Stretch(sfc.Morton, order, Options{Radius: 1}).Mean
		g := Stretch(sfc.Gray, order, Options{Radius: 1}).Mean
		r := Stretch(sfc.RowMajor, order, Options{Radius: 1}).Mean
		if !(z < g && z < h) {
			t.Errorf("order %d: Z (%f) should beat Gray (%f) and Hilbert (%f)", order, z, g, h)
		}
		if !(r < g && r < h) {
			t.Errorf("order %d: RowMajor (%f) should beat Gray (%f) and Hilbert (%f)", order, r, g, h)
		}
	}
}

func TestRelativeOrderingStableAcrossRadii(t *testing.T) {
	// §V: "irregardless the radius used, the relative ordering of the
	// curves was the same".
	const order = 6
	type ranked struct {
		name string
		c    sfc.Curve
	}
	curves := []ranked{
		{"hilbert", sfc.Hilbert}, {"morton", sfc.Morton},
		{"gray", sfc.Gray}, {"rowmajor", sfc.RowMajor},
	}
	orderAt := func(radius int) []string {
		vals := make(map[string]float64)
		for _, cr := range curves {
			vals[cr.name] = Stretch(cr.c, order, Options{Radius: radius}).Mean
		}
		names := []string{"hilbert", "morton", "gray", "rowmajor"}
		// Simple selection sort by value.
		for i := 0; i < len(names); i++ {
			for j := i + 1; j < len(names); j++ {
				if vals[names[j]] < vals[names[i]] {
					names[i], names[j] = names[j], names[i]
				}
			}
		}
		return names
	}
	base := orderAt(1)
	for _, radius := range []int{2, 4, 6} {
		got := orderAt(radius)
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("radius %d ordering %v differs from r=1 ordering %v", radius, got, base)
			}
		}
	}
}

func TestStretchDeterministicAcrossWorkers(t *testing.T) {
	const order = 5
	base := Stretch(sfc.Gray, order, Options{Radius: 3, Workers: 1})
	for _, w := range []int{2, 5, 16} {
		got := Stretch(sfc.Gray, order, Options{Radius: 3, Workers: w})
		if got.Pairs != base.Pairs || math.Abs(got.Mean-base.Mean) > 1e-9 {
			t.Fatalf("workers=%d: %+v != %+v", w, got, base)
		}
	}
}

func TestChebyshevOptionCountsMorePairs(t *testing.T) {
	const order = 4
	man := Stretch(sfc.Hilbert, order, Options{Radius: 2})
	che := Stretch(sfc.Hilbert, order, Options{Radius: 2, Ball: ChebyshevBall})
	if che.Pairs <= man.Pairs {
		t.Fatalf("chebyshev pairs %d <= manhattan pairs %d", che.Pairs, man.Pairs)
	}
}

func TestDegenerateGrid(t *testing.T) {
	// Order 0: a single cell, no pairs.
	res := Stretch(sfc.Hilbert, 0, Options{Radius: 1})
	if res.Pairs != 0 || res.Mean != 0 {
		t.Fatalf("order 0 result %+v", res)
	}
}

// TestANNSEqualsNFIOnBus realizes the paper's §V reduction: input every
// point of the resolution, one particle per processor in curve order,
// bus network, radius 1 — the near-field ACD equals the ANNS.
func TestANNSEqualsNFIOnBus(t *testing.T) {
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
	for _, c := range sfc.All() {
		a, err := acd.Assign(nil, set, c, len(pts))
		if err != nil {
			t.Fatal(err)
		}
		bus := topology.NewBus(len(pts))
		nfi := fmmmodel.NFIMulti(a, []topology.Topology{bus}, fmmmodel.NFIOptions{Radius: 1, Metric: geom.MetricManhattan})[0]
		anns := Stretch(c, order, Options{Radius: 1})
		if math.Abs(nfi.ACD()-anns.Mean) > 1e-9 {
			t.Errorf("%s: NFI-on-bus ACD %f != ANNS %f", c.Name(), nfi.ACD(), anns.Mean)
		}
	}
}

// NearestNeighborPairs returns the number of unordered Manhattan-
// distance-1 pairs on a side x side grid: 2*side*(side-1). Used to
// validate pair counting.
func NearestNeighborPairs(side uint32) uint64 {
	return 2 * uint64(side) * uint64(side-1)
}

// RowMajorExact returns the exact classic ANNS (r=1, Manhattan) of the
// row-major curve on a 2^order grid: vertical neighbor pairs stretch 1,
// horizontal pairs stretch 2^order, in equal numbers — the closed form
// (side+1)/2 that Xu and Tirthapura's analysis yields. Used as an
// analytic cross-check of the empirical machinery.
func RowMajorExact(order uint) float64 {
	side := float64(geom.Side(order))
	return (side + 1) / 2
}

// panicCurve panics on the cells of the grid's last row.
type panicCurve struct {
	sfc.Curve
	lastRow uint32
}

func (c panicCurve) Index(order uint, p geom.Point) uint64 {
	if p.Y == c.lastRow {
		panic("curve boom")
	}
	return c.Curve.Index(order, p)
}

// TestStretchWorkerPanic panics the curve on the last stripe's rows,
// which a worker indexes: the panic must reach the caller as a
// *panics.Worker rather than end the process.
func TestStretchWorkerPanic(t *testing.T) {
	const order = 3
	var v any
	func() {
		defer func() { v = recover() }()
		Stretch(panicCurve{sfc.Hilbert, geom.Side(order) - 1}, order, Options{Workers: 3})
	}()
	if w, ok := v.(*panics.Worker); !ok || w.Value != "curve boom" {
		t.Fatalf("recovered %#v, want a *panics.Worker of the curve's panic", v)
	}
}
