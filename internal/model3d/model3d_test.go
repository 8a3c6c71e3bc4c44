package model3d

import (
	"math"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/geom3"
	"sfcacd/internal/octree"
	"sfcacd/internal/panics"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

func sample3(t *testing.T, s dist.Sampler3, seed uint64, order uint, n int) []geom3.Point3 {
	t.Helper()
	pts, err := dist.SampleUnique3(s, rng.New(seed), order, n)
	if err != nil {
		t.Fatal(err)
	}
	return pts
}

func TestAssignBasics(t *testing.T) {
	const order = 4
	pts := sample3(t, dist.Uniform3, 1, order, 200)
	a, err := Assign(pts, sfc.HilbertND{N: 3}, order, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != 200 || a.P != 8 || a.Side() != 16 {
		t.Fatalf("N=%d P=%d Side=%d", a.N(), a.P, a.Side())
	}
	// Curve-ordered and monotone ranks.
	h := sfc.HilbertND{N: 3}
	buf := make([]uint32, 3)
	var prev uint64
	for i, p := range a.Particles {
		buf[0], buf[1], buf[2] = p.X, p.Y, p.Z
		key := h.IndexND(order, buf)
		if i > 0 && key <= prev {
			t.Fatalf("not curve ordered at %d", i)
		}
		prev = key
		if i > 0 && a.Ranks[i] < a.Ranks[i-1] {
			t.Fatalf("ranks not monotone at %d", i)
		}
		if got := a.RankAt(p); got != a.Ranks[i] {
			t.Fatalf("RankAt(%v) = %d, want %d", p, got, a.Ranks[i])
		}
	}
	if a.RankAt(geom3.Pt3(15, 15, 0)) != -1 {
		// Cell may be occupied by chance; verify emptiness first.
		occupied := false
		for _, p := range pts {
			if p == geom3.Pt3(15, 15, 0) {
				occupied = true
			}
		}
		if !occupied {
			t.Error("empty cell did not return -1")
		}
	}
	if a.RankAt(geom3.Pt3(a.Side(), 0, 0)) != -1 {
		t.Error("cell outside the cube did not return -1")
	}
}

func TestAssignErrors(t *testing.T) {
	pts := []geom3.Point3{geom3.Pt3(0, 0, 0)}
	if _, err := Assign(pts, sfc.HilbertND{N: 2}, 3, 4); err == nil {
		t.Error("2D curve accepted")
	}
	if _, err := Assign(pts, sfc.HilbertND{N: 3}, 3, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := Assign(nil, sfc.HilbertND{N: 3}, 3, 4); err == nil {
		t.Error("empty accepted")
	}
	dup := []geom3.Point3{geom3.Pt3(1, 1, 1), geom3.Pt3(1, 1, 1)}
	if _, err := Assign(dup, sfc.HilbertND{N: 3}, 3, 2); err == nil {
		t.Error("duplicates accepted")
	}
}

// bruteNFI3 is the quadratic reference.
func bruteNFI3(a *Assignment, topo topology.Topology, radius int, m geom.Metric) acd.Accumulator {
	var res acd.Accumulator
	for i := 0; i < a.N(); i++ {
		for j := 0; j < a.N(); j++ {
			if i == j {
				continue
			}
			if geom3.Dist(m, a.Particles[i], a.Particles[j]) <= radius {
				res.Add(topo.Distance(int(a.Ranks[i]), int(a.Ranks[j])))
			}
		}
	}
	return res
}

func TestNFIMatchesBruteForce(t *testing.T) {
	const order = 3
	pts := sample3(t, dist.Normal3, 2, order, 120)
	a, err := Assign(pts, sfc.MortonND{N: 3}, order, 8)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus3D(1, sfc.HilbertND{N: 3})
	for _, radius := range []int{1, 2} {
		got := NFI(nil, a, topo, NFIOptions{Radius: radius})
		want := bruteNFI3(a, topo, radius, geom.MetricChebyshev)
		if got != want {
			t.Fatalf("r=%d: NFI %+v != brute %+v", radius, got, want)
		}
	}
}

func TestNFIDeterministicAcrossWorkers(t *testing.T) {
	const order = 4
	pts := sample3(t, dist.Uniform3, 3, order, 300)
	a, err := Assign(pts, sfc.HilbertND{N: 3}, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus3D(2, sfc.HilbertND{N: 3})
	base := NFI(nil, a, topo, NFIOptions{Radius: 1, Workers: 1})
	for _, w := range []int{2, 5, 16} {
		if got := NFI(nil, a, topo, NFIOptions{Radius: 1, Workers: w}); got != base {
			t.Fatalf("workers=%d diverged", w)
		}
	}
}

// bruteFFI3 is an independent full-scan far-field reference.
func bruteFFI3(a *Assignment, topo topology.Topology) FFIResult {
	var res FFIResult
	// Reimplement representatives directly: min rank per cell.
	reps := make([]map[geom3.Point3]int32, a.Order+1)
	for l := uint(0); l <= a.Order; l++ {
		reps[l] = make(map[geom3.Point3]int32)
	}
	for i, p := range a.Particles {
		for l := int(a.Order); l >= 0; l-- {
			shift := a.Order - uint(l)
			c := geom3.Pt3(p.X>>shift, p.Y>>shift, p.Z>>shift)
			if r, ok := reps[l][c]; !ok || a.Ranks[i] < r {
				reps[l][c] = a.Ranks[i]
			}
		}
	}
	for l := uint(1); l <= a.Order; l++ {
		for c, rep := range reps[l] {
			parent := reps[l-1][geom3.Pt3(c.X/2, c.Y/2, c.Z/2)]
			d := topo.Distance(int(rep), int(parent))
			res.Interpolation.Add(d)
			res.Anterpolation.Add(d)
		}
		if l < 2 {
			continue
		}
		for c, rep := range reps[l] {
			for q, other := range reps[l] {
				if geom3.Chebyshev(c, q) <= 1 {
					continue
				}
				if geom3.Chebyshev(geom3.Pt3(c.X/2, c.Y/2, c.Z/2), geom3.Pt3(q.X/2, q.Y/2, q.Z/2)) > 1 {
					continue
				}
				res.InteractionList.Add(topo.Distance(int(rep), int(other)))
			}
		}
	}
	return res
}

func TestFFIMatchesBruteForce(t *testing.T) {
	const order = 3
	pts := sample3(t, dist.Exponential3, 4, order, 100)
	for _, curve := range []sfc.NDCurve{sfc.HilbertND{N: 3}, sfc.RowMajorND{N: 3}} {
		a, err := Assign(pts, curve, order, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, topo := range []topology.Topology{
			topology.NewBus(8),
			topology.NewTorus3D(1, sfc.MortonND{N: 3}),
			topology.NewOctreeNet(1),
		} {
			got := FFI(nil, a, topo, 0)
			want := bruteFFI3(a, topo)
			if got != want {
				t.Fatalf("%s/%s: FFI %+v != brute %+v", curve.Name(), topo.Name(), got, want)
			}
		}
	}
}

func TestHilbert3DBeatsRowMajor3D(t *testing.T) {
	// The 2D headline result carries to 3D: locality-preserving
	// ordering beats the raster scan for both interaction families.
	const order = 5
	pts := sample3(t, dist.Uniform3, 5, order, 3000)
	run := func(c sfc.NDCurve) (float64, float64) {
		a, err := Assign(pts, c, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.NewTorus3D(2, c)
		return NFI(nil, a, topo, NFIOptions{Radius: 1}).ACD(), FFI(nil, a, topo, 0).Total().ACD()
	}
	hn, hf := run(sfc.HilbertND{N: 3})
	rn, rf := run(sfc.RowMajorND{N: 3})
	if hn >= rn {
		t.Errorf("3D NFI: hilbert %f >= rowmajor %f", hn, rn)
	}
	if hf >= rf {
		t.Errorf("3D FFI: hilbert %f >= rowmajor %f", hf, rf)
	}
}

func TestANNS3DKnownRowMajor(t *testing.T) {
	// RowMajorND{3}: along the fastest axis stretch 1, middle axis
	// stretch side, slow axis stretch side^2 — mean (1+s+s^2)/3.
	for order := uint(1); order <= 4; order++ {
		side := float64(geom3.Side(order))
		got, pairs := ANNS3D(sfc.RowMajorND{N: 3}, order, 1)
		want := (1 + side + side*side) / 3
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("order %d: rowmajor3d ANNS %f, want %f", order, got, want)
		}
		s := uint64(geom3.Side(order))
		if wantPairs := 3 * s * s * (s - 1); pairs != wantPairs {
			t.Fatalf("order %d: %d pairs, want %d", order, pairs, wantPairs)
		}
	}
}

func TestANNS3DOrderingMatches2DFinding(t *testing.T) {
	// Xu-Tirthapura's 2D finding carries over: Z and row-major beat
	// Hilbert and Gray under ANNS in 3D too.
	const order = 3
	vals := map[string]float64{}
	for _, c := range sfc.AllND(3) {
		mean, _ := ANNS3D(c, order, 1)
		vals[c.Name()] = mean
	}
	if !(vals["morton3d"] < vals["gray3d"] && vals["morton3d"] < vals["hilbert3d"]) {
		t.Errorf("3D ANNS: morton %f should beat gray %f and hilbert %f",
			vals["morton3d"], vals["gray3d"], vals["hilbert3d"])
	}
	if !(vals["rowmajor3d"] < vals["gray3d"]) {
		t.Errorf("3D ANNS: rowmajor %f should beat gray %f", vals["rowmajor3d"], vals["gray3d"])
	}
}

func TestANNS3DPanicsOn2DCurve(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("2D curve accepted")
		}
	}()
	ANNS3D(sfc.HilbertND{N: 2}, 2, 1)
}

// mapNFI3 is the per-event near-field oracle with neighbor ranks
// resolved through a plain cell map instead of the flat key index.
func mapNFI3(a *Assignment, topo topology.Topology, radius int, m geom.Metric) acd.Accumulator {
	cellRank := make(map[uint64]int32, a.N())
	for i, p := range a.Particles {
		cellRank[geom3.CellID(p, a.Side())] = a.Ranks[i]
	}
	var res acd.Accumulator
	for i, p := range a.Particles {
		geom3.VisitNeighborhood(p, radius, m, a.Side(), func(q geom3.Point3) {
			if r, ok := cellRank[geom3.CellID(q, a.Side())]; ok {
				res.Add(topo.Distance(int(a.Ranks[i]), int(r)))
			}
		})
	}
	return res
}

// TestNFIKeysEngineMatchesTree pins the 3D near field, which resolves
// ranks on the flat Morton3 key index, to the map-probing oracle:
// identical accumulators across curves, radii and metrics.
func TestNFIKeysEngineMatchesTree(t *testing.T) {
	const order = 4
	pts := sample3(t, dist.Normal3, 7, order, 250)
	topo := topology.NewTorus3D(2, sfc.HilbertND{N: 3})
	for _, curve := range sfc.AllND(3) {
		a, err := Assign(pts, curve, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, radius := range []int{1, 2} {
			for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
				want := mapNFI3(a, topo, radius, m)
				got := NFI(nil, a, topo, NFIOptions{Radius: radius, Metric: m})
				if got != want {
					t.Fatalf("%s r=%d %s: NFI %+v != map oracle %+v", curve.Name(), radius, m, got, want)
				}
			}
		}
	}
}

// panicTopology panics on every distance query.
type panicTopology struct{ topology.Topology }

func (panicTopology) Distance(a, b int) int { panic("distance boom") }

// workerPanic runs f and checks it re-raised the topology's panic on
// the caller as a *panics.Worker rather than ending the process.
func workerPanic(t *testing.T, f func()) {
	t.Helper()
	var v any
	func() {
		defer func() { v = recover() }()
		f()
	}()
	if w, ok := v.(*panics.Worker); !ok || w.Value != "distance boom" {
		t.Fatalf("recovered %#v, want a *panics.Worker of the topology's panic", v)
	}
}

func panicAssignment(t *testing.T) (*Assignment, topology.Topology) {
	t.Helper()
	pts := sample3(t, dist.Uniform3, 4, 3, 200)
	a, err := Assign(pts, sfc.HilbertND{N: 3}, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	return a, panicTopology{topology.NewTorus3D(1, sfc.HilbertND{N: 3})}
}

// TestNFIWorkerPanic panics the topology in the near-field workers.
func TestNFIWorkerPanic(t *testing.T) {
	a, topo := panicAssignment(t)
	workerPanic(t, func() { NFI(nil, a, topo, NFIOptions{Workers: 3}) })
}

// TestInteractionLevelWorkerPanic panics the topology in the
// interaction-list workers of one level.
func TestInteractionLevelWorkerPanic(t *testing.T) {
	a, topo := panicAssignment(t)
	tree := octree.BuildRankTree(a.Order, a.Particles, a.Ranks)
	workerPanic(t, func() { interactionLevel3D(tree, topo, a.Order, 3) })
}
