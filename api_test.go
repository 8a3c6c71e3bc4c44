package sfcacd_test

import (
	"math"
	"testing"

	"sfcacd"
)

// TestPublicAPIEndToEnd drives the documented public surface through
// the paper's full §IV pipeline.
func TestPublicAPIEndToEnd(t *testing.T) {
	const order, n, procOrder = 8, 2000, 3
	pts, err := sfcacd.SampleUnique(sfcacd.Uniform, sfcacd.NewRand(1), order, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != n {
		t.Fatalf("sampled %d", len(pts))
	}
	for _, curve := range sfcacd.Curves() {
		a, err := sfcacd.Assign(pts, curve, order, 1<<(2*procOrder))
		if err != nil {
			t.Fatal(err)
		}
		torus := sfcacd.NewTorus(procOrder, curve)
		nfi := sfcacd.NFI(a, torus, sfcacd.NFIOptions{Radius: 1})
		if nfi.Count == 0 {
			t.Fatalf("%s: no NFI events", curve.Name())
		}
		ffi := sfcacd.FFI(a, torus, sfcacd.FFIOptions{})
		if ffi.Total().Count == 0 {
			t.Fatalf("%s: no FFI events", curve.Name())
		}
	}
}

func TestPublicCurveRegistry(t *testing.T) {
	if len(sfcacd.Curves()) != 4 {
		t.Fatalf("Curves() = %d", len(sfcacd.Curves()))
	}
	c, err := sfcacd.CurveByName("hilbert")
	if err != nil || c.Name() != "hilbert" {
		t.Fatalf("CurveByName: %v %v", c, err)
	}
	p := sfcacd.Pt(3, 5)
	d := sfcacd.Hilbert.Index(4, p)
	if sfcacd.Hilbert.Point(4, d) != p {
		t.Fatal("facade curve round trip failed")
	}
}

func TestPublicTopologies(t *testing.T) {
	for _, kind := range sfcacd.TopologyKinds() {
		topo, err := sfcacd.NewTopology(kind, 16, sfcacd.Hilbert)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if topo.Distance(0, 15) <= 0 {
			t.Fatalf("%s: degenerate distance", kind)
		}
	}
	if sfcacd.NewHypercube(4).P() != 16 {
		t.Fatal("hypercube constructor")
	}
}

func TestPublicANNS(t *testing.T) {
	res := sfcacd.ANNS(sfcacd.RowMajor, 5, sfcacd.ANNSOptions{Radius: 1})
	if math.Abs(res.Mean-16.5) > 1e-9 {
		t.Fatalf("ANNS = %f, want 16.5", res.Mean)
	}
}

func TestPublicPrimitives(t *testing.T) {
	topo := sfcacd.NewTorus(2, sfcacd.Hilbert)
	for name, acc := range map[string]sfcacd.Accumulator{
		"broadcast": sfcacd.Broadcast(topo, 0),
		"reduce":    sfcacd.Reduce(topo, 0),
		"alltoall":  sfcacd.AllToAll(topo),
		"prefix":    sfcacd.ParallelPrefix(topo),
		"ring":      sfcacd.RingExchange(topo),
		"gather":    sfcacd.QuadTreeGather(topo),
	} {
		if acc.Count == 0 {
			t.Errorf("%s: no events", name)
		}
	}
}

func TestPublic3D(t *testing.T) {
	pts, err := sfcacd.SampleUnique3(sfcacd.Samplers3D()[0], sfcacd.NewRand(2), 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, curve := range sfcacd.Curves3D() {
		a, err := sfcacd.Assign3D(pts, curve, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		torus := sfcacd.NewTorus3D(1, curve)
		if sfcacd.NFI3D(a, torus, sfcacd.NFI3DOptions{Radius: 1}).Count == 0 {
			// Sparse 3D samples can lack neighbors at radius 1; widen.
			if sfcacd.NFI3D(a, torus, sfcacd.NFI3DOptions{Radius: 4}).Count == 0 {
				t.Fatalf("%s: no 3D NFI events even at radius 4", curve.Name())
			}
		}
		if sfcacd.FFI3D(a, torus, 0).Total().Count == 0 {
			t.Fatalf("%s: no 3D FFI events", curve.Name())
		}
	}
	mean, pairs := sfcacd.ANNS3D(sfcacd.Curves3D()[0], 3, 1)
	if mean <= 0 || pairs == 0 {
		t.Fatal("3D ANNS degenerate")
	}
}

func TestPublicNBody(t *testing.T) {
	sys := sfcacd.NBodySystem{
		Pos: []complex128{0.3 + 0.3i, 0.7 + 0.7i, 0.2 + 0.8i},
		Q:   []float64{1, -1, 1},
	}
	direct, err := sfcacd.SolveDirect(sys, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmm, err := sfcacd.SolveFMM(sys, sfcacd.FMMSolverOptions{Terms: 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct.Potential {
		if math.Abs(direct.Potential[i]-fmm.Potential[i]) > 1e-8 {
			t.Fatalf("potential %d mismatch", i)
		}
	}
	sim, err := sfcacd.NewNBodySimulator(sys, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	sim.UseDirect = true
	if err := sim.Step(); err != nil {
		t.Fatal(err)
	}
	if sim.Steps != 1 {
		t.Fatal("step not recorded")
	}
}

func TestPublicWeightedACD(t *testing.T) {
	var w sfcacd.WeightedAccumulator
	w.Add(4, 10)
	if w.ACD() != 4 {
		t.Fatalf("weighted ACD %f", w.ACD())
	}
}

func TestPublicFromOwners(t *testing.T) {
	pts := []sfcacd.Point{sfcacd.Pt(0, 0), sfcacd.Pt(5, 5)}
	a, err := sfcacd.AssignmentFromOwners(pts, []int32{1, 0}, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.RankAt(sfcacd.Pt(0, 0)) != 1 {
		t.Fatal("owner lookup failed")
	}
	// Cells outside the 8x8 grid are empty: (13,4) must not alias onto
	// the occupied (5,5), and (0,8) must not index past the grid.
	for _, q := range []sfcacd.Point{sfcacd.Pt(13, 4), sfcacd.Pt(0, 8)} {
		if r := a.RankAt(q); r != -1 {
			t.Fatalf("RankAt(%v) outside the grid = %d, want -1", q, r)
		}
	}
}
