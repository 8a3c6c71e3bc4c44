package fmmmodel

import (
	"fmt"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// The priced path (replay the pair plan through the pricers' flush
// buffers into the distance kernels) must reproduce the direct
// per-event path bit for bit: identical Sum, Count, and Zeros, not
// merely close ACD values. Integer accumulation is commutative, so any
// divergence is a real defect — a lost or double-counted event, a
// broken symmetry argument, a torus priced in the wrong group lane, or
// a wrong distance.

// allTopologies returns one instance of each of the paper's six network
// types, sized for p = 64.
func allTopologies() []topology.Topology {
	return []topology.Topology{
		topology.NewBus(64),
		topology.NewRing(64),
		topology.NewMesh(3, sfc.Hilbert),
		topology.NewTorus(3, sfc.RowMajor),
		topology.NewHypercube(6),
		topology.NewQuadtreeNet(3),
	}
}

// TestDifferentialMatrixVsDirect sweeps seeds x particle orders and
// checks the priced path (NFIMulti, FFIMulti) against the direct
// oracle on curve-sorted Assign inputs and a shuffled-rank FromOwners
// input, each assigned both over a private set and over one set every
// input shares, whose plans the first assignment priced records (see
// checkPricedVsDirect for the radii, metrics and topologies covered).
// It keeps its matrix-era name because CI's Differential step selects
// it by name.
func TestDifferentialMatrixVsDirect(t *testing.T) {
	const order, p = 6, 64
	topos := allTopologies()
	curves := []sfc.Curve{sfc.RowMajor, sfc.Morton, sfc.Gray, sfc.Hilbert}
	for seed := int64(1); seed <= 2; seed++ {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(seed)), order, 400)
		if err != nil {
			t.Fatal(err)
		}
		set, err := keynav.NewSet(nil, order, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, curve := range curves {
			a, err := assignPoints(pts, curve, order, p)
			if err != nil {
				t.Fatal(err)
			}
			shared, err := acd.Assign(nil, set, curve, p)
			if err != nil {
				t.Fatal(err)
			}
			checkPricedVsDirect(t, fmt.Sprintf("seed%d/%s", seed, curve.Name()), a, shared, topos)
		}
		a := shuffledOwners(t, pts, order, p, uint64(seed))
		shared, err := acd.FromOwners(nil, set, a.Owners(), p)
		if err != nil {
			t.Fatal(err)
		}
		checkPricedVsDirect(t, fmt.Sprintf("seed%d/owners", seed), a, shared, topos)
	}
}

// assignPoints is acd.Assign over a private set of pts.
func assignPoints(pts []geom.Point, curve sfc.Curve, order uint, p int) (*acd.Assignment, error) {
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		return nil, err
	}
	return acd.Assign(nil, set, curve, p)
}

// ownersPoints is acd.FromOwners over a private set of pts.
func ownersPoints(pts []geom.Point, ranks []int32, order uint, p int) (*acd.Assignment, error) {
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		return nil, err
	}
	return acd.FromOwners(nil, set, ranks, p)
}

// shuffledOwners assigns pts in sampling order to ranks shuffled so
// they are not monotone along any curve: the input shape loadbalance
// and dynamic build.
func shuffledOwners(t *testing.T, pts []geom.Point, order uint, p int, seed uint64) *acd.Assignment {
	t.Helper()
	perm := make([]int, len(pts))
	rng.New(seed + 100).Perm(perm)
	ranks := make([]int32, len(pts))
	for i, j := range perm {
		ranks[i] = int32(j * p / len(pts))
	}
	a, err := ownersPoints(pts, ranks, order, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// checkPricedVsDirect holds NFIMulti (radii 1 and 2, both metrics)
// and FFIMulti to the direct per-event oracle on every topology in
// topos, for one assignment a over a private set and the same
// ownership, shared, labelling a set other assignments share.
func checkPricedVsDirect(t *testing.T, name string, a, shared *acd.Assignment, topos []topology.Topology) {
	t.Helper()
	ffiDirect := make([]FFIResult, len(topos))
	for i, topo := range topos {
		ffiDirect[i] = oracleFFI(a, topo)
	}
	for _, radius := range []int{1, 2} {
		for _, metric := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			opts := NFIOptions{Radius: radius, Metric: metric}
			private := NFIMulti(a, topos, opts)
			fromShared := NFIMulti(shared, topos, opts)
			for i, topo := range topos {
				if direct := oracleNFI(a, topo, opts); private[i] != direct || fromShared[i] != direct {
					t.Errorf("%s r=%d %s %s: NFI priced %+v (shared set %+v) != direct %+v",
						name, radius, metric, topo.Name(), private[i], fromShared[i], direct)
				}
			}
		}
	}
	for _, b := range []*acd.Assignment{a, shared} {
		multi := FFIMulti(b, topos, FFIOptions{})
		for i, topo := range topos {
			if multi[i] != ffiDirect[i] {
				t.Errorf("%s %s: FFI priced %+v != direct %+v", name, topo.Name(), multi[i], ffiDirect[i])
			}
		}
	}
}

// TestNFIMatrixContractsExactly pins the symmetric-canonical
// convention at the matrix level: contracting the canonical matrix
// with symmetric weighting, one table at a time or all tables in one
// call, reproduces the ordered direct stream.
func TestNFIMatrixContractsExactly(t *testing.T) {
	const order = 6
	pts, err := dist.SampleUnique(dist.Normal, rng.New(9), order, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	opts := NFIOptions{Radius: 1, Metric: geom.MetricChebyshev}
	m := NFIMatrix(a, opts)
	topos := allTopologies()
	dts := make([]*topology.DistanceTable, len(topos))
	all := make([]acd.Accumulator, len(topos))
	accs := make([]*acd.Accumulator, len(topos))
	for i, topo := range topos {
		dts[i] = topology.NewDistanceTable(topo)
		accs[i] = &all[i]
	}
	m.ContractTableMultiSym(dts, accs, 1)
	for i, topo := range topos {
		var one acd.Accumulator
		m.ContractTableMultiSym([]*topology.DistanceTable{topology.NewDistanceTable(topo)}, []*acd.Accumulator{&one}, 2)
		direct := oracleNFI(a, topo, opts)
		if one != direct || all[i] != direct {
			t.Errorf("%s: one table %+v / all tables %+v != direct %+v", topo.Name(), one, all[i], direct)
		}
	}
}
