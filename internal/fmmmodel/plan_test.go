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

// TestPlanReplayEquality requires the results every curve's
// assignment prices from a plan recorded on another curve's assignment
// of the same particle set to equal those priced from its own plan, on
// all six topology kinds: at orders 4-8 and at order 12 with 0.1%
// occupancy, for radii 1-3 under both metrics, and for the far field.
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
		as := make([]*acd.Assignment, len(curves))
		for i, c := range curves {
			if as[i], err = acd.Assign(pts, c, tc.order, tc.p); err != nil {
				t.Fatal(err)
			}
		}
		for i, a := range as {
			other := as[(i+1)%len(as)].KeyIndex()
			name := fmt.Sprintf("order %d %s (plan from %s)", tc.order, curves[i].Name(), curves[(i+1)%len(as)].Name())
			for radius := 1; radius <= 3; radius++ {
				for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
					opts := NFIOptions{Radius: radius, Metric: m, Workers: 2}
					own := NFIMulti(a, topos, opts)
					opts.Plan = keynav.RecordPlan(other, opts.Spec(), 2)
					if got := NFIMulti(a, topos, opts); !slices.Equal(got, own) {
						t.Errorf("%s r=%d %s: near field %v differs from the own-plan result %v", name, radius, m, got, own)
					}
					opts.Plan.Release()
				}
			}
			own := FFIMulti(a, topos, FFIOptions{Workers: 2})
			pl := keynav.RecordPlan(other, keynav.Spec{Far: true}, 2)
			if got := FFIMulti(a, topos, FFIOptions{Workers: 2, Plan: pl}); !slices.Equal(got, own) {
				t.Errorf("%s: far field %v differs from the own-plan result %v", name, got, own)
			}
			pl.Release()
		}
	}
}

// TestPlanMismatchPanics applies a plan to an assignment of another
// particle set, and asks a plan for a neighborhood or a far field it
// did not record: every priced and matrix entry point must panic on
// the calling goroutine instead of returning a result.
func TestPlanMismatchPanics(t *testing.T) {
	const order, n, p = 6, 500, 64
	assign := func(seed uint64) *acd.Assignment {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
		if err != nil {
			t.Fatal(err)
		}
		a, err := acd.Assign(pts, sfc.Hilbert, order, p)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	a, b := assign(1), assign(2)
	pl := keynav.RecordPlan(b.KeyIndex(), keynav.Spec{Radius: 1, Metric: geom.MetricChebyshev, Far: true}, 2)
	defer pl.Release()
	near := keynav.RecordPlan(b.KeyIndex(), keynav.Spec{Radius: 1, Metric: geom.MetricChebyshev}, 2)
	defer near.Release()
	topos := []topology.Topology{topology.NewTorus(3, sfc.Hilbert)}
	for name, f := range map[string]func() any{
		"NFIMatrix": func() any { return NFIMatrix(a, NFIOptions{Plan: pl}) },
		"NFIMulti":  func() any { return NFIMulti(a, topos, NFIOptions{Plan: pl}) },
		"FFIMulti":  func() any { return FFIMulti(a, topos, FFIOptions{Plan: pl}) },
		"radius":    func() any { return NFIMatrix(b, NFIOptions{Radius: 2, Plan: pl}) },
		"metric":    func() any { return NFIMatrix(b, NFIOptions{Metric: geom.MetricManhattan, Plan: pl}) },
		"far field": func() any { return FFIMulti(b, topos, FFIOptions{Plan: near}) },
	} {
		var got any
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			got = f()
		}()
		if got != nil {
			t.Errorf("%s: returned %T", name, got)
		}
	}
	// The plan still serves its own particle set.
	if NFIMatrix(b, NFIOptions{Plan: pl}).Events() == 0 {
		t.Error("plan replay on its own particle set produced no events")
	}
}
