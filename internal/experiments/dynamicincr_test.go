package experiments

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
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
	bad := p
	bad.IncrMode = "bogus"
	if _, err := RunDynamicIncr(context.Background(), bad, 2); err == nil {
		t.Error("bogus incr mode accepted")
	}
}

// TestRunDynamicIncrModesIdentical is the cross-mechanism differential
// oracle at experiment level: the rendered result must be byte-for-byte
// identical whether the pipeline state was maintained by deltas or
// rebuilt every tick (CI repeats this check through cmd/acdbench).
func TestRunDynamicIncrModesIdentical(t *testing.T) {
	p := testParams
	p.Particles = 800
	p.IncrMode = "incr"
	a, err := RunDynamicIncr(context.Background(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	p.IncrMode = "rebuild"
	b, err := RunDynamicIncr(context.Background(), p, 3)
	if err != nil {
		t.Fatal(err)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("modes diverged:\nincr:    %s\nrebuild: %s", aj, bj)
	}
}

// BenchmarkDynamicIncr runs the two maintenance mechanisms on the same
// trajectory; the delta path's per-tick advantage over full rebuild is
// the experiment's reason to exist.
func BenchmarkDynamicIncr(b *testing.B) {
	for _, mode := range []string{"incr", "rebuild"} {
		b.Run(mode, func(b *testing.B) {
			p := testParams
			p.Particles = 2000
			p.Order = 7
			p.IncrMode = mode
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunDynamicIncr(context.Background(), p, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
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
