package fmmmodel

import (
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// TestNFIMultiMatchesSingle: evaluating N topologies in one pass gives
// exactly the same accumulators as N one-topology passes.
func TestNFIMultiMatchesSingle(t *testing.T) {
	const order = 6
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.NewTorus(3, sfc.Hilbert),
		topology.NewTorus(3, sfc.RowMajor),
		topology.NewMesh(3, sfc.Gray),
		topology.NewHypercube(6),
		topology.NewBus(64),
	}
	opts := NFIOptions{Radius: 2, Metric: geom.MetricChebyshev}
	multi := NFIMulti(a, topos, opts)
	for i, topo := range topos {
		single := nfiOne(a, topo, opts)
		if multi[i] != single {
			t.Fatalf("topology %d (%s): multi %+v != single %+v", i, topo.Name(), multi[i], single)
		}
	}
}

// TestFFIMultiMatchesSingle mirrors the NFI check for the far field.
func TestFFIMultiMatchesSingle(t *testing.T) {
	const order = 5
	pts, err := dist.SampleUnique(dist.Exponential, rng.New(2), order, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.NewTorus(2, sfc.Hilbert),
		topology.NewQuadtreeNet(2),
		topology.NewRing(16),
	}
	multi := FFIMulti(a, topos, FFIOptions{})
	for i, topo := range topos {
		single := ffiOne(a, topo, FFIOptions{})
		if multi[i] != single {
			t.Fatalf("topology %d (%s): multi %+v != single %+v", i, topo.Name(), multi[i], single)
		}
	}
}

// TestMultiDeterministicAcrossWorkers pins the parallel multi paths.
func TestMultiDeterministicAcrossWorkers(t *testing.T) {
	const order = 6
	pts, err := dist.SampleUnique(dist.Normal, rng.New(3), order, 600)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh assignment per worker count records its set's plans at
	// that count.
	assign := func() *acd.Assignment {
		a, err := assignPoints(pts, sfc.Gray, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	topos := []topology.Topology{
		topology.NewTorus(3, sfc.Hilbert),
		topology.NewMesh(3, sfc.Morton),
	}
	a := assign()
	nfiBase := NFIMulti(a, topos, NFIOptions{Radius: 1, Workers: 1})
	ffiBase := FFIMulti(a, topos, FFIOptions{Workers: 1})
	for _, w := range []int{2, 8, 32} {
		a := assign()
		nfi := NFIMulti(a, topos, NFIOptions{Radius: 1, Workers: w})
		ffi := FFIMulti(a, topos, FFIOptions{Workers: w})
		for i := range topos {
			if nfi[i] != nfiBase[i] || ffi[i] != ffiBase[i] {
				t.Fatalf("workers=%d: results diverged", w)
			}
		}
	}
}
