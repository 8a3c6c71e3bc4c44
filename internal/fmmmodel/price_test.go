package fmmmodel

import (
	"fmt"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// plainTopology hides a topology's batched kernel, so the pricer takes
// its per-pair Distance fallback.
type plainTopology struct{ topology.Topology }

// TestPricedMatchesMatrixUnderEviction holds the priced path to the
// matrix path where the pricers' memos thrash: shuffled owners scatter
// every cell's neighbors over unrelated ranks, so nearly every event
// is a distinct pair and evicts a memo entry. NFIMulti and FFIMulti
// must equal the matrix contractions exactly at K = 1 and K = 6 (plus
// a topology without a batched kernel), at 1, 2 and 7 workers.
func TestPricedMatchesMatrixUnderEviction(t *testing.T) {
	const order, n, p = 8, 15625, 4096
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(16), order, n)
	if err != nil {
		t.Fatal(err)
	}
	six := []topology.Topology{
		topology.NewBus(p),
		topology.NewRing(p),
		topology.NewMesh(6, sfc.Hilbert),
		topology.NewTorus(6, sfc.Gray),
		topology.NewHypercube(12),
		topology.NewQuadtreeNet(6),
	}
	for _, topos := range [][]topology.Topology{six[3:4], append(six, plainTopology{six[3]})} {
		for _, w := range []int{1, 2, 7} {
			// A fresh set per worker count records its plans at that
			// count.
			a := shuffledOwners(t, pts, order, p, 16)
			name := fmt.Sprintf("K=%d workers=%d", len(topos), w)
			opts := NFIOptions{Radius: 1, Metric: geom.MetricChebyshev, Workers: w}
			want := make([]acd.Accumulator, len(topos))
			dts := make([]*topology.DistanceTable, len(topos))
			accs := make([]*acd.Accumulator, len(topos))
			for i, topo := range topos {
				dts[i], accs[i] = topology.NewDistanceTable(topo), &want[i]
			}
			NFIMatrix(a, opts).ContractTableMultiSym(dts, accs, w)
			events, pairs := obs.GetCounter("price.events").Value(), obs.GetCounter("price.pairs").Value()
			got := NFIMulti(a, topos, opts)
			events = obs.GetCounter("price.events").Value() - events
			pairs = obs.GetCounter("price.pairs").Value() - pairs
			if 2*pairs < events {
				t.Fatalf("%s: %d events priced as %d pairs; the memo was not thrashed", name, events, pairs)
			}
			wantFFI := FFIMatricesFromIndex(a.KeyIndex(), p, w).ContractAll(topos, w)
			gotFFI := FFIMulti(a, topos, FFIOptions{Workers: w})
			for i, topo := range topos {
				if got[i] != want[i] {
					t.Errorf("%s %s: priced NFI %+v != matrix %+v", name, topo.Name(), got[i], want[i])
				}
				if gotFFI[i] != wantFFI[i] {
					t.Errorf("%s %s: priced FFI %+v != matrix %+v", name, topo.Name(), gotFFI[i], wantFFI[i])
				}
			}
		}
	}
}

// TestPricedSingleRank prices an assignment onto one processor: every
// event stays on it, so every accumulator has Sum 0 and Count equal to
// Zeros.
func TestPricedSingleRank(t *testing.T) {
	const order = 5
	pts, err := dist.SampleUnique(dist.Normal, rng.New(5), order, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 1)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.NewBus(1),
		topology.NewRing(1),
		topology.NewMesh(0, sfc.Hilbert),
		topology.NewTorus(0, sfc.Hilbert),
		topology.NewHypercube(0),
		topology.NewQuadtreeNet(0),
	}
	nfi := NFIMulti(a, topos, NFIOptions{Radius: 2})
	ffi := FFIMulti(a, topos, FFIOptions{})
	for i, topo := range topos {
		for name, acc := range map[string]acd.Accumulator{
			"near field":       nfi[i],
			"interpolation":    ffi[i].Interpolation,
			"anterpolation":    ffi[i].Anterpolation,
			"interaction list": ffi[i].InteractionList,
		} {
			if acc.Sum != 0 || acc.Count == 0 || acc.Count != acc.Zeros {
				t.Errorf("%s %s: %+v, want Sum 0 and Count == Zeros > 0", topo.Name(), name, acc)
			}
		}
	}
}

// TestPricedPMismatchPanics prices an assignment over 64 ranks on a
// topology of 16: both entry points must panic on the calling
// goroutine instead of pricing the wrong ranks.
func TestPricedPMismatchPanics(t *testing.T) {
	const order = 5
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(7), order, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{topology.NewTorus(3, sfc.Hilbert), topology.NewTorus(2, sfc.Hilbert)}
	for name, f := range map[string]func(){
		"NFIMulti": func() { NFIMulti(a, topos, NFIOptions{}) },
		"FFIMulti": func() { FFIMulti(a, topos, FFIOptions{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a 16-processor torus", name)
				}
			}()
			f()
		}()
	}
}
