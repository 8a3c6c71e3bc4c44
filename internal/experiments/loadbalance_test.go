package experiments

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
)

func TestRunLoadBalance(t *testing.T) {
	p := testParams
	res, err := RunLoadBalance(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 {
		t.Fatalf("curves %v", res.Curves)
	}
	for c := range res.Curves {
		// Work-weighted chunking must improve (or match) the work
		// imbalance of the skewed input for every curve.
		if res.WorkImbalance[c] > res.CountImbalance[c]+1e-9 {
			t.Errorf("%s: work imbalance %f worse than count %f",
				res.Curves[c], res.WorkImbalance[c], res.CountImbalance[c])
		}
		if res.WorkImbalance[c] < 1 || res.CountImbalance[c] < 1 {
			t.Errorf("%s: imbalance below 1", res.Curves[c])
		}
		// Rebalancing must not blow up the communication metric: the
		// ACD stays in the same ballpark (within 2x).
		if res.WorkACD[c] > 2*res.CountACD[c]+1 {
			t.Errorf("%s: work-balanced ACD %f far above count-balanced %f",
				res.Curves[c], res.WorkACD[c], res.CountACD[c])
		}
	}
	var b strings.Builder
	if err := res.Matrix().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "load balancing") {
		t.Error("title missing")
	}
	bad := p
	bad.Trials = 0
	if _, err := RunLoadBalance(context.Background(), bad); err == nil {
		t.Error("bad params accepted")
	}
}

func TestRunLoadBalanceDeterministic(t *testing.T) {
	a, err := RunLoadBalance(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunLoadBalance(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a.Curves {
		if a.WorkACD[c] != b.WorkACD[c] || a.CountImbalance[c] != b.CountImbalance[c] {
			t.Fatal("RunLoadBalance not deterministic")
		}
	}
}

// TestNearDegreesMatchProbes holds the plan-derived per-particle work
// to the probe loop it replaced: each particle's Chebyshev
// neighborhood visited cell by cell and looked up in an assignment's
// labelling, at radii 0-3 on a skewed input and at several recording
// worker counts.
func TestNearDegreesMatchProbes(t *testing.T) {
	p := testParams
	for _, radius := range []int{0, 1, 2, 3} {
		for _, workers := range []int{1, 3} {
			set, err := sampleSet(nil, dist.Exponential, p, 0)
			if err != nil {
				t.Fatal(err)
			}
			a, err := acd.Assign(nil, set, sfc.Hilbert, p.P())
			if err != nil {
				t.Fatal(err)
			}
			got := nearDegrees(nil, set, radius, workers)
			for i, pt := range set.Points() {
				deg := 0
				geom.VisitNeighborhood(pt, radius, geom.MetricChebyshev, geom.Side(p.Order), func(q geom.Point) {
					if a.RankAt(q) >= 0 {
						deg++
					}
				})
				if got[i] != float64(deg) {
					t.Fatalf("r=%d workers=%d: particle %d at %v has degree %v, probes count %d", radius, workers, i, pt, got[i], deg)
				}
			}
		}
	}
}

// TestLoadBalanceRadiusZeroIsOne: radius 0 means radius 1 in every near
// field, so a radius-0 run prints the radius-1 table (imbalances
// included, which come from the near plan's degrees) and records one
// plan per trial, its group build's, as the radius-1 run does.
func TestLoadBalanceRadiusZeroIsOne(t *testing.T) {
	plans := obs.GetCounter("keynav.plans")
	var res [2]LoadBalanceResult
	for i, radius := range []int{0, 1} {
		p := testParams
		p.Radius = radius
		before := plans.Value()
		var err error
		if res[i], err = RunLoadBalance(context.Background(), p); err != nil {
			t.Fatal(err)
		}
		if n := plans.Value() - before; n != uint64(p.Trials) {
			t.Errorf("radius %d: %d plans recorded for %d trials", radius, n, p.Trials)
		}
	}
	if !reflect.DeepEqual(res[0], res[1]) {
		t.Errorf("radius 0 gave %+v, radius 1 %+v", res[0], res[1])
	}
	if res[0].CountImbalance[0] < 1 {
		t.Errorf("radius 0: count imbalance %v, want the radius-1 degrees' (at least 1)", res[0].CountImbalance[0])
	}
}
