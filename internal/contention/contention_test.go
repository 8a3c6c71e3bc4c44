package contention

import (
	"fmt"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// assignPoints is acd.Assign over a private set of pts.
func assignPoints(pts []geom.Point, curve sfc.Curve, order uint, p int) (*acd.Assignment, error) {
	set, err := keynav.NewSet(order, pts)
	if err != nil {
		return nil, err
	}
	return acd.Assign(set, curve, p)
}

func TestRouteHopsMatchDistanceOnMesh(t *testing.T) {
	m := topology.NewMesh(3, sfc.Hilbert)
	tr := NewTracker(m)
	var wantHops uint64
	for a := 0; a < m.P(); a += 3 {
		for b := 0; b < m.P(); b += 5 {
			tr.Route(int32(a), int32(b))
			wantHops += uint64(m.Distance(a, b))
		}
	}
	if tr.Hops != wantHops {
		t.Fatalf("hops %d, sum of distances %d", tr.Hops, wantHops)
	}
}

func TestRouteHopsMatchDistanceOnTorus(t *testing.T) {
	m := topology.NewTorus(3, sfc.Gray)
	tr := NewTracker(m)
	var wantHops uint64
	for a := 0; a < m.P(); a += 7 {
		for b := 0; b < m.P(); b++ {
			tr.Route(int32(a), int32(b))
			wantHops += uint64(m.Distance(a, b))
		}
	}
	if tr.Hops != wantHops {
		t.Fatalf("torus XY routing not minimal: hops %d, distances %d", tr.Hops, wantHops)
	}
}

func TestZeroHopMessages(t *testing.T) {
	m := topology.NewMesh(2, sfc.Hilbert)
	tr := NewTracker(m)
	tr.Route(3, 3)
	s := tr.Stats()
	if s.Messages != 1 || s.Hops != 0 || s.UsedLinks != 0 || s.MaxLinkLoad != 0 {
		t.Fatalf("zero-hop stats %+v", s)
	}
}

func TestSingleRouteLoads(t *testing.T) {
	// Route one message across a 4x4 mesh corner to corner: 6 links,
	// each loaded once.
	m := topology.NewMesh(2, sfc.RowMajor)
	tr := NewTracker(m)
	// RowMajor placement: rank = x*4+y, so rank 0 at (0,0), rank 15 at
	// (3,3).
	tr.Route(0, 15)
	s := tr.Stats()
	if s.Hops != 6 || s.UsedLinks != 6 || s.MaxLinkLoad != 1 {
		t.Fatalf("single route stats %+v", s)
	}
	if s.MeanLinkLoad != 1 {
		t.Fatalf("mean link load %f", s.MeanLinkLoad)
	}
}

func TestOppositeRoutesUseDistinctLinks(t *testing.T) {
	// Links are directed: a->b and b->a along a line share no links.
	m := topology.NewMesh(2, sfc.RowMajor)
	tr := NewTracker(m)
	a := int32(0)
	b := int32(3 * 4) // row-major rank of (3, 0): 3 hops along x
	tr.Route(a, b)
	tr.Route(b, a)
	s := tr.Stats()
	if s.MaxLinkLoad != 1 {
		t.Fatalf("opposite routes collided: %+v", s)
	}
	if s.UsedLinks != 6 {
		t.Fatalf("used links %d, want 6", s.UsedLinks)
	}
}

func TestConvergingRoutesContend(t *testing.T) {
	// Many sources sending to one corner along a row must share the
	// final link.
	m := topology.NewMesh(2, sfc.RowMajor)
	tr := NewTracker(m)
	// Ranks 4, 8, 12 are at (1,0), (2,0), (3,0); all route to rank 0 at
	// (0,0) along the -x row.
	tr.Route(4, 0)
	tr.Route(8, 0)
	tr.Route(12, 0)
	s := tr.Stats()
	if s.MaxLinkLoad != 3 {
		t.Fatalf("converging max load %d, want 3 on the last link", s.MaxLinkLoad)
	}
}

// routeMatrix routes a canonical communication matrix: each pair
// (s, d, n) stands for n events in each direction.
func routeMatrix(tr *Tracker, m *commmat.Matrix) {
	m.Visit(func(src, dst int32, n uint32) {
		tr.RouteN(src, dst, n)
		tr.RouteN(dst, src, n)
	})
}

func TestHilbertPlacementReducesNFICongestion(t *testing.T) {
	// The headline use of the extension: for the FMM near field on a
	// mesh, Hilbert particle+processor ordering should yield both lower
	// total hops and a less congested hottest link than row-major.
	const order = 7
	r := rng.New(1)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 2000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c sfc.Curve) Stats {
		a, err := assignPoints(pts, c, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		m := topology.NewMesh(3, c)
		tr := NewTracker(m)
		routeMatrix(tr, fmmmodel.NFIMatrix(a, fmmmodel.NFIOptions{Radius: 1}))
		return tr.Stats()
	}
	h := run(sfc.Hilbert)
	rm := run(sfc.RowMajor)
	if h.Hops >= rm.Hops {
		t.Errorf("hilbert hops %d >= rowmajor %d", h.Hops, rm.Hops)
	}
	if h.MaxLinkLoad >= rm.MaxLinkLoad {
		t.Errorf("hilbert max link load %d >= rowmajor %d", h.MaxLinkLoad, rm.MaxLinkLoad)
	}
}

// grids returns a mesh and a torus over 64 ranks.
func grids() []GridTopology {
	return []GridTopology{topology.NewMesh(3, sfc.Hilbert), topology.NewTorus(3, sfc.Gray)}
}

// checkSameLoads requires identical per-link loads and Stats.
func checkSameLoads(t *testing.T, name string, got, want *Tracker) {
	t.Helper()
	if got.Stats() != want.Stats() {
		t.Fatalf("%s: stats %+v, want %+v", name, got.Stats(), want.Stats())
	}
	for i := range want.loads {
		if got.loads[i] != want.loads[i] {
			t.Fatalf("%s: link %d load %d, want %d", name, i, got.loads[i], want.loads[i])
		}
	}
}

// TestRouteNMatchesRepeatedRoute: routing n messages at once leaves
// the same link loads and totals as n single routes, including n = 0
// and self-messages.
func TestRouteNMatchesRepeatedRoute(t *testing.T) {
	for _, grid := range grids() {
		batched, single := NewTracker(grid), NewTracker(grid)
		r := rng.New(4)
		for i := 0; i < 500; i++ {
			src := int32(r.Uint32n(uint32(grid.P())))
			dst := int32(r.Uint32n(uint32(grid.P())))
			if i%50 == 0 {
				dst = src
			}
			n := r.Uint32n(5)
			batched.RouteN(src, dst, n)
			for k := uint32(0); k < n; k++ {
				single.Route(src, dst)
			}
		}
		checkSameLoads(t, grid.Name(), batched, single)
	}
}

// TestRouteMatrixMatchesEventStream: routing the near- and far-field
// matrices in both directions loads every link exactly as routing each
// ordered event of the per-event streams does. The streams are
// enumerated here without the production pipeline: neighbor ranks
// from a cell->rank map built from the assignment's owners,
// representatives from quadtree.RankTree.
func TestRouteMatrixMatchesEventStream(t *testing.T) {
	const order, n, p = 6, 400, 64
	pts, err := dist.SampleUnique(dist.Normal, rng.New(2), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, p)
	if err != nil {
		t.Fatal(err)
	}
	owners := a.Owners()
	ranks := make(map[geom.Point]int32, a.N())
	for i, pt := range pts {
		ranks[pt] = owners[i]
	}
	tree := quadtree.BuildRankTree(a.Order, pts, owners)
	for _, grid := range grids() {
		for _, radius := range []int{1, 2} {
			opts := fmmmodel.NFIOptions{Radius: radius, Metric: geom.MetricChebyshev}
			viaMatrix, viaEvents := NewTracker(grid), NewTracker(grid)
			routeMatrix(viaMatrix, fmmmodel.NFIMatrix(a, opts))
			for i, pt := range pts {
				geom.VisitNeighborhood(pt, radius, opts.Metric, a.Side(), func(q geom.Point) {
					if r, ok := ranks[q]; ok {
						viaEvents.Route(owners[i], r)
					}
				})
			}
			checkSameLoads(t, fmt.Sprintf("%s NFI r=%d", grid.Name(), radius), viaMatrix, viaEvents)
		}

		viaMatrix, viaEvents := NewTracker(grid), NewTracker(grid)
		ms := fmmmodel.FFIMatricesFromIndex(a.KeyIndex(), p, 0)
		routeMatrix(viaMatrix, ms.Interpolation)
		routeMatrix(viaMatrix, ms.InteractionList)
		for l := tree.Order; l >= 1; l-- {
			tree.VisitCells(l, func(x, y uint32, rep int32) {
				parent := tree.Rep(l-1, x/2, y/2)
				viaEvents.Route(rep, parent)
				viaEvents.Route(parent, rep)
			})
		}
		for l := uint(2); l <= tree.Order; l++ {
			tree.VisitCells(l, func(x, y uint32, rep int32) {
				tree.InteractionList(l, x, y, func(_, _ uint32, other int32) {
					viaEvents.Route(rep, other)
				})
			})
		}
		checkSameLoads(t, grid.Name()+" FFI", viaMatrix, viaEvents)
	}
}
