package fmmmodel

import (
	"fmt"
	"slices"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// TestPlanReplayEquality requires the assignments of every curve that
// label one shared set, and so replay the plans the first of them
// recorded, to price exactly like the same assignments over private
// sets, on all six topology kinds: at orders 4-8 and at order 12 with
// 0.1% occupancy, for radii 1-3 under both metrics, and for the far
// field.
func TestPlanReplayEquality(t *testing.T) {
	curves := sfc.All()
	for _, tc := range []struct {
		order uint
		n, p  int
	}{{4, 100, 16}, {5, 400, 64}, {6, 1500, 256}, {7, 6000, 1024}, {8, 15625, 4096}, {12, 16777, 4096}} {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(tc.order)), tc.order, tc.n)
		if err != nil {
			t.Fatal(err)
		}
		var topos []topology.Topology
		for _, kind := range topology.Kinds {
			topo, err := topology.New(kind, tc.p, sfc.Hilbert)
			if err != nil {
				t.Fatal(err)
			}
			topos = append(topos, topo)
		}
		set, err := keynav.NewSet(nil, tc.order, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range curves {
			shared, err := acd.Assign(nil, set, c, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			private, err := assignPoints(pts, c, tc.order, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("order %d %s", tc.order, c.Name())
			for radius := 1; radius <= 3; radius++ {
				for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
					opts := NFIOptions{Radius: radius, Metric: m, Workers: 2}
					if got, want := NFIMulti(shared, topos, opts), NFIMulti(private, topos, opts); !slices.Equal(got, want) {
						t.Errorf("%s r=%d %s: near field over the shared set %v differs from the private-set result %v", name, radius, m, got, want)
					}
				}
			}
			opts := FFIOptions{Workers: 2}
			if got, want := FFIMulti(shared, topos, opts), FFIMulti(private, topos, opts); !slices.Equal(got, want) {
				t.Errorf("%s: far field over the shared set %v differs from the private-set result %v", name, got, want)
			}
		}
	}
}
