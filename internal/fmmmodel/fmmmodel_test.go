package fmmmodel

import (
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

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

// TestNFIHandComputed checks the fully worked 2x2 example: particles at
// all four cells, Hilbert particle order, one particle per processor,
// bus topology.
func TestNFIHandComputed(t *testing.T) {
	a, err := assignPoints(fullGrid(1), sfc.Hilbert, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	bus := topology.NewBus(4)
	res := nfiOne(a, bus, NFIOptions{Radius: 1, Metric: geom.MetricChebyshev})
	// All 4 cells are mutually Chebyshev-adjacent: 12 ordered pairs.
	// Hilbert ranks around the square are 0,1,2,3; bus distances sum
	// to 2*(1+2+3+1+2+1) = 20.
	if res.Count != 12 {
		t.Fatalf("count = %d, want 12", res.Count)
	}
	if res.Sum != 20 {
		t.Fatalf("sum = %d, want 20", res.Sum)
	}
}

// TestFFIHandComputed checks the 2x2 far-field example: only
// interpolation/anterpolation exist (no interaction lists below level
// 2). Each leaf representative sends to the root representative
// (rank 0) over a bus.
func TestFFIHandComputed(t *testing.T) {
	a, err := assignPoints(fullGrid(1), sfc.Hilbert, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	bus := topology.NewBus(4)
	res := ffiOne(a, bus, FFIOptions{})
	if res.InteractionList.Count != 0 {
		t.Fatalf("interaction list events = %d, want 0", res.InteractionList.Count)
	}
	// Four parent-child links with distances 0,1,2,3.
	if res.Interpolation.Count != 4 || res.Interpolation.Sum != 6 {
		t.Fatalf("interpolation = %+v", res.Interpolation)
	}
	if res.Anterpolation != res.Interpolation {
		t.Fatalf("anterpolation %+v != interpolation %+v", res.Anterpolation, res.Interpolation)
	}
	total := res.Total()
	if total.Count != 8 || total.Sum != 12 {
		t.Fatalf("total = %+v", total)
	}
}

// bruteFFI is an independent reference implementation of the far-field
// model: scan all cell pairs at every level.
func bruteFFI(a *acd.Assignment, topo topology.Topology) FFIResult {
	tree := quadtree.BuildRankTree(a.Order, a.Particles, a.Ranks)
	var res FFIResult
	for l := uint(1); l <= a.Order; l++ {
		side := geom.Side(l)
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				rep := tree.Rep(l, x, y)
				if rep == -1 {
					continue
				}
				d := topo.Distance(int(rep), int(tree.Rep(l-1, x/2, y/2)))
				res.Interpolation.Add(d)
				res.Anterpolation.Add(d)
				if l < 2 {
					continue
				}
				for by := uint32(0); by < side; by++ {
					for bx := uint32(0); bx < side; bx++ {
						other := tree.Rep(l, bx, by)
						if other == -1 {
							continue
						}
						av, bv := geom.Pt(x, y), geom.Pt(bx, by)
						if geom.Chebyshev(av, bv) <= 1 {
							continue
						}
						if geom.Chebyshev(geom.Pt(x/2, y/2), geom.Pt(bx/2, by/2)) > 1 {
							continue
						}
						res.InteractionList.Add(topo.Distance(int(rep), int(other)))
					}
				}
			}
		}
	}
	return res
}

func TestFFIMatchesBruteForce(t *testing.T) {
	const order = 4
	r := rng.New(5)
	for _, sampler := range dist.All() {
		pts, err := dist.SampleUnique(sampler, r, order, 90)
		if err != nil {
			t.Fatal(err)
		}
		for _, pc := range []sfc.Curve{sfc.Hilbert, sfc.RowMajor} {
			a, err := assignPoints(pts, pc, order, 16)
			if err != nil {
				t.Fatal(err)
			}
			for _, topoName := range []string{"bus", "torus", "hypercube", "quadtree"} {
				topo, err := topology.New(topoName, 16, sfc.Morton)
				if err != nil {
					t.Fatal(err)
				}
				got := ffiOne(a, topo, FFIOptions{})
				want := bruteFFI(a, topo)
				if got != want {
					t.Fatalf("%s/%s/%s: FFI %+v, brute force %+v",
						sampler.Name(), pc.Name(), topoName, got, want)
				}
			}
		}
	}
}

// bruteNFI is an independent near-field reference: scan all particle
// pairs.
func bruteNFI(a *acd.Assignment, topo topology.Topology, radius int, m geom.Metric) acd.Accumulator {
	var res acd.Accumulator
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if i == j {
				continue
			}
			if m.Dist(a.Particles[i], a.Particles[j]) <= radius {
				res.Add(topo.Distance(int(a.Ranks[i]), int(a.Ranks[j])))
			}
		}
	}
	return res
}

func TestNFIMatchesBruteForce(t *testing.T) {
	const order = 5
	r := rng.New(6)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Gray, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus(2, sfc.Hilbert)
	for _, radius := range []int{1, 2, 4} {
		for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			got := nfiOne(a, topo, NFIOptions{Radius: radius, Metric: m})
			want := bruteNFI(a, topo, radius, m)
			if got != want {
				t.Fatalf("r=%d m=%v: NFI %+v, brute force %+v", radius, m, got, want)
			}
		}
	}
}

func TestNFIDeterministicAcrossWorkerCounts(t *testing.T) {
	const order = 5
	r := rng.New(7)
	pts, err := dist.SampleUnique(dist.Normal, r, order, 200)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh assignment per worker count records its set's plan at
	// that count.
	assign := func() *acd.Assignment {
		a, err := assignPoints(pts, sfc.Hilbert, order, 16)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	topo := topology.NewMesh(2, sfc.Hilbert)
	base := nfiOne(assign(), topo, NFIOptions{Radius: 2, Workers: 1})
	for _, w := range []int{2, 3, 8, 64} {
		if got := nfiOne(assign(), topo, NFIOptions{Radius: 2, Workers: w}); got != base {
			t.Fatalf("workers=%d: %+v != %+v", w, got, base)
		}
	}
}

func TestFFIDeterministicAcrossWorkerCounts(t *testing.T) {
	const order = 5
	r := rng.New(8)
	pts, err := dist.SampleUnique(dist.Exponential, r, order, 200)
	if err != nil {
		t.Fatal(err)
	}
	assign := func() *acd.Assignment {
		a, err := assignPoints(pts, sfc.Morton, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	topo := topology.NewTorus(3, sfc.Morton)
	base := ffiOne(assign(), topo, FFIOptions{Workers: 1})
	for _, w := range []int{2, 7, 32} {
		if got := ffiOne(assign(), topo, FFIOptions{Workers: w}); got != base {
			t.Fatalf("workers=%d: %+v != %+v", w, got, base)
		}
	}
}

func TestNFIRadiusGrowsACD(t *testing.T) {
	// Larger radii add longer-range pairs, so the ACD must not drop
	// (paper §VI-C: "larger radii ... result in higher ACD values").
	const order = 6
	r := rng.New(9)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus(3, sfc.Hilbert)
	prev := 0.0
	for _, radius := range []int{1, 2, 4, 8} {
		got := nfiOne(a, topo, NFIOptions{Radius: radius}).ACD()
		if got < prev*0.95 { // allow slight non-monotonicity from averaging
			t.Fatalf("radius %d ACD %f dropped well below %f", radius, got, prev)
		}
		prev = got
	}
}

func TestSingleProcessorZeroACD(t *testing.T) {
	// Everything on one processor: every communication is zero hops.
	const order = 4
	r := rng.New(10)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewBus(1)
	if got := nfiOne(a, topo, NFIOptions{Radius: 3}); got.Sum != 0 || got.Count == 0 {
		t.Fatalf("NFI on 1 processor = %+v", got)
	}
	if got := ffiOne(a, topo, FFIOptions{}).Total(); got.Sum != 0 || got.Count == 0 {
		t.Fatalf("FFI on 1 processor = %+v", got)
	}
}

func TestHilbertBeatsRowMajorOnTorus(t *testing.T) {
	// The paper's headline ordering: {Hilbert ≈ Z} < Gray << Row-major.
	// At modest scale, check Hilbert/Hilbert strictly beats
	// RowMajor/RowMajor for both interaction families.
	const order = 8
	r := rng.New(12)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 4000)
	if err != nil {
		t.Fatal(err)
	}
	const procOrder = 4 // 256 processors
	run := func(c sfc.Curve) (nfi, ffi float64) {
		a, err := assignPoints(pts, c, order, 1<<(2*procOrder))
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.NewTorus(procOrder, c)
		return nfiOne(a, topo, NFIOptions{Radius: 1}).ACD(), ffiOne(a, topo, FFIOptions{}).Total().ACD()
	}
	hn, hf := run(sfc.Hilbert)
	rn, rf := run(sfc.RowMajor)
	if hn >= rn {
		t.Errorf("NFI: hilbert %f >= rowmajor %f", hn, rn)
	}
	if hf >= rf {
		t.Errorf("FFI: hilbert %f >= rowmajor %f", hf, rf)
	}
}
