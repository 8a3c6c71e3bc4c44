package experiments

import (
	"context"
	"slices"
	"strings"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// TestDriftProperties pins the drift step's contract: it never creates
// duplicate cells, never leaves the grid, and is byte-identical under
// a fixed seed. The incremental pipeline's correctness rests on the
// first property (one particle per cell) and its cacheability on the
// last.
func TestDriftProperties(t *testing.T) {
	const order = 5
	p := testParams
	p.Order = order
	p.Particles = 600
	pts, err := samplePoints(nil, p.sampler(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	side := geom.Side(order)
	r := rng.New(99)
	for step := 0; step < 20; step++ {
		drift(pts, order, r)
		seen := make(map[uint64]bool, len(pts))
		for _, pt := range pts {
			if pt.X >= side || pt.Y >= side {
				t.Fatalf("step %d: particle %v outside %dx%d grid", step, pt, side, side)
			}
			id := geom.CellID(pt, side)
			if seen[id] {
				t.Fatalf("step %d: duplicate cell %v", step, pt)
			}
			seen[id] = true
		}
	}
	// Replay: same seed, same trajectory, cell for cell.
	ptsA, _ := samplePoints(nil, p.sampler(), p, 0)
	ptsB, _ := samplePoints(nil, p.sampler(), p, 0)
	ra, rb := rng.New(7), rng.New(7)
	for step := 0; step < 5; step++ {
		drift(ptsA, order, ra)
		drift(ptsB, order, rb)
		for i := range ptsA {
			if ptsA[i] != ptsB[i] {
				t.Fatalf("step %d: replay diverged at particle %d: %v vs %v", step, i, ptsA[i], ptsB[i])
			}
		}
	}
}

// TestRunDynamicIncr checks the experiment's shape, basic sanity, and
// that drift actually happens in the tuned regime (some particles move
// each tick, but only a few percent).
func TestRunDynamicIncr(t *testing.T) {
	p := testParams
	p.Particles = 1200
	res, err := RunDynamicIncr(context.Background(), p, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 4 || len(res.Ticks) != 4 || len(res.Moved) != 4 {
		t.Fatalf("bad shape: %d curves, %d ticks, %d moved entries", len(res.Curves), len(res.Ticks), len(res.Moved))
	}
	totalMoved := 0
	for tick, m := range res.Moved {
		if m < 0 || m > p.Particles/10 {
			t.Errorf("tick %d: %d of %d particles moved, outside the few-percent regime", tick, m, p.Particles)
		}
		totalMoved += m
	}
	if totalMoved == 0 {
		t.Error("no particle ever moved; the drift regime is mistuned")
	}
	for c := range res.Curves {
		for tk := range res.Ticks {
			if res.ACD[c][tk] <= 0 {
				t.Errorf("%s tick %d: ACD %f not positive", res.Curves[c], tk, res.ACD[c][tk])
			}
			if res.Gauge[c][tk] < 0 || res.Gauge[c][tk] > 1 {
				t.Errorf("%s tick %d: gauge %f outside [0,1]", res.Curves[c], tk, res.Gauge[c][tk])
			}
		}
	}
	var b strings.Builder
	if err := res.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "repartitions[") {
		t.Error("render missing repartition summary")
	}
	var csv strings.Builder
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csv.String(), "tick,curve,acd,gauge,touched,moved,repartitions") {
		t.Errorf("csv header: %q", strings.SplitN(csv.String(), "\n", 2)[0])
	}
	if _, err := RunDynamicIncr(context.Background(), p, 0); err == nil {
		t.Error("ticks=0 accepted")
	}
}

// TestDynamicIncrMatchesFreshPricing holds every ACD dynamicincr
// maintains to fresh pricing: along the trajectory RunDynamicIncr
// drifts its particles through (newDrift), each curve's ACD after
// tick t must equal fmmmodel.NFIMulti over a fresh acd.Assign of tick
// t's cells on the curve's torus. It runs the registry's tick count at
// three configurations: the scaled table12 preset at -scale 4; at
// -scale 2, where the repartition policy fires for hilbert and gray;
// and at -scale 3 on an exponential input at radius 2, where more
// pairs join two particles that only changed owner.
func TestDynamicIncrMatchesFreshPricing(t *testing.T) {
	exp := Table12Paper.Scale(3)
	exp.Distribution, exp.Radius = "exponential", 2
	for _, tc := range []struct {
		name         string
		p            Params
		repartitions []string
	}{
		{"scale4", Table12Paper.Scale(4), nil},
		{"scale2", Table12Paper.Scale(2), []string{"hilbert", "gray"}},
		{"scale3-exponential-r2", exp, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, err := RunDynamicIncr(context.Background(), tc.p, dynamicIncrTicks)
			if err != nil {
				t.Fatal(err)
			}
			_, step, err := newDrift(nil, tc.p)
			if err != nil {
				t.Fatal(err)
			}
			for tick := 1; tick <= dynamicIncrTicks; tick++ {
				cells, err := step()
				if err != nil {
					t.Fatal(err)
				}
				set, err := keynav.NewSet(nil, tc.p.Order, cells)
				if err != nil {
					t.Fatal(err)
				}
				for c, curve := range sfc.All() {
					a, err := acd.Assign(nil, set, curve, tc.p.P())
					if err != nil {
						t.Fatal(err)
					}
					torus := []topology.Topology{topology.NewTorus(tc.p.ProcOrder, curve)}
					if want, got := fmmmodel.NFIMulti(a, torus, nearOptions(tc.p))[0].ACD(), res.ACD[c][tick-1]; got != want {
						t.Errorf("%s tick %d: maintained ACD %v, fresh pricing %v", curve.Name(), tick, got, want)
					}
				}
			}
			for _, name := range tc.repartitions {
				c := slices.Index(res.Curves, name)
				if c < 0 || res.Repartitions[c] == 0 {
					t.Errorf("%s: the repartition policy never fired (repartitions %v)", name, res.Repartitions)
				}
			}
		})
	}
}

// BenchmarkDynamicIncr runs the delta maintenance over one trajectory.
func BenchmarkDynamicIncr(b *testing.B) {
	p := testParams
	p.Particles = 2000
	p.Order = 7
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunDynamicIncr(context.Background(), p, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRunDynamicIncrDistribution checks the threaded distribution knob:
// a clustered distribution must change the trajectory (different
// sampled points) while staying deterministic.
func TestRunDynamicIncrDistribution(t *testing.T) {
	p := testParams
	p.Particles = 600
	uni, err := RunDynamicIncr(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	p.Distribution = "normal"
	norm, err := RunDynamicIncr(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for c := range uni.Curves {
		for tk := range uni.Ticks {
			if uni.ACD[c][tk] != norm.ACD[c][tk] {
				same = false
			}
		}
	}
	if same {
		t.Error("normal distribution produced identical ACD series to uniform")
	}
	norm2, err := RunDynamicIncr(context.Background(), p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := range norm.Curves {
		for tk := range norm.Ticks {
			if norm.ACD[c][tk] != norm2.ACD[c][tk] {
				t.Fatal("RunDynamicIncr not deterministic under fixed distribution")
			}
		}
	}
}
