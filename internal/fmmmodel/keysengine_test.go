package fmmmodel

import (
	"fmt"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/keynav"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestDifferentialKeysEngine feeds the key-space engine the input
// shape loadbalance and dynamic build: an acd.FromOwners assignment
// with particles in sampling order and ranks shuffled so they are not
// monotone along any curve. The set must sort the keys itself and the
// labelling carry each particle's own rank; checkPricedVsDirect holds
// the result to the direct per-event oracle on all six topologies, over
// a private set and over a set whose plans a Morton assignment
// recorded first.
func TestDifferentialKeysEngine(t *testing.T) {
	const order, p = 6, 64
	topos := allTopologies()
	for seed := int64(1); seed <= 2; seed++ {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(seed)), order, 400)
		if err != nil {
			t.Fatal(err)
		}
		set, err := keynav.NewSet(order, pts)
		if err != nil {
			t.Fatal(err)
		}
		mortonShared, err := acd.Assign(set, sfc.Morton, p)
		if err != nil {
			t.Fatal(err)
		}
		morton, err := assignPoints(pts, sfc.Morton, order, p)
		if err != nil {
			t.Fatal(err)
		}
		checkPricedVsDirect(t, fmt.Sprintf("seed%d/morton", seed), morton, mortonShared, topos)
		a := shuffledOwners(t, pts, order, p, uint64(seed))
		shared, err := acd.FromOwners(set, a.Owners(), p)
		if err != nil {
			t.Fatal(err)
		}
		checkPricedVsDirect(t, fmt.Sprintf("seed%d/owners", seed), a, shared, topos)
	}
}

// TestKeysEngineWorkerInvariance requires byte-identical results at
// every worker count on all six topologies — the priced path
// must preserve the sweep scheduler's determinism guarantee.
func TestKeysEngineWorkerInvariance(t *testing.T) {
	const order = 6
	topos := allTopologies()
	pts, err := dist.SampleUnique(dist.Normal, rng.New(41), order, 500)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh assignment per worker count records its set's plans at
	// that count.
	assign := func() *acd.Assignment {
		a, err := assignPoints(pts, sfc.Hilbert, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a := assign()
	nfiBase := NFIMulti(a, topos, NFIOptions{Workers: 1})
	ffiBase := FFIMulti(a, topos, FFIOptions{Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		a := assign()
		nfi := NFIMulti(a, topos, NFIOptions{Workers: workers})
		ffi := FFIMulti(a, topos, FFIOptions{Workers: workers})
		for i := range topos {
			if nfi[i] != nfiBase[i] {
				t.Errorf("workers=%d %s: NFI %+v != single-worker %+v", workers, topos[i].Name(), nfi[i], nfiBase[i])
			}
			if ffi[i] != ffiBase[i] {
				t.Errorf("workers=%d %s: FFI %+v != single-worker %+v", workers, topos[i].Name(), ffi[i], ffiBase[i])
			}
		}
	}
}
