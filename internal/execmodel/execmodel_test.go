package execmodel

import (
	"fmt"
	"math"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// assignPoints is acd.Assign over a private set of pts.
func assignPoints(pts []geom.Point, curve sfc.Curve, order uint, p int) (*acd.Assignment, error) {
	set, err := keynav.NewSet(order, pts)
	if err != nil {
		return nil, err
	}
	return acd.Assign(set, curve, p)
}

// ownersPoints is acd.FromOwners over a private set of pts.
func ownersPoints(pts []geom.Point, ranks []int32, order uint, p int) (*acd.Assignment, error) {
	set, err := keynav.NewSet(order, pts)
	if err != nil {
		return nil, err
	}
	return acd.FromOwners(set, ranks, p)
}

func TestTallyBasics(t *testing.T) {
	ta := NewTally(3)
	ta.Message(0, 2)
	ta.Message(0, 0) // zero-hop: free
	ta.Message(1, 5)
	ta.AddWork(2, 7)
	if ta.Sends[0] != 1 || ta.Hops[0] != 2 {
		t.Fatalf("rank 0 tallies %d/%d", ta.Sends[0], ta.Hops[0])
	}
	if ta.Sends[1] != 1 || ta.Hops[1] != 5 || ta.Work[2] != 7 {
		t.Fatalf("tallies %+v", ta)
	}
	ms, err := ta.Makespan(CostParams{Alpha: 1, Beta: 1, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1: 1 + 5 = 6; rank 2: 7.
	if ms != 7 {
		t.Fatalf("makespan %f, want 7", ms)
	}
}

func TestCostParamsValidation(t *testing.T) {
	ta := NewTally(1)
	if _, err := ta.Makespan(CostParams{Alpha: -1}); err == nil {
		t.Error("negative alpha accepted")
	}
	if _, err := ta.Makespan(CostParams{Beta: -1}); err == nil {
		t.Error("negative beta accepted")
	}
	if err := DefaultCost.Validate(); err != nil {
		t.Error(err)
	}
}

func TestCollectNFIConsistentWithACD(t *testing.T) {
	// Total hops in the tally equal the ACD accumulator's Sum; work
	// units equal its Count.
	const order = 6
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, 400)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus(3, sfc.Hilbert)
	opts := fmmmodel.NFIOptions{Radius: 1, Metric: geom.MetricChebyshev}
	tally := CollectNFI(a, topo, opts)
	acc := fmmmodel.NFIMulti(a, []topology.Topology{topo}, opts)[0]
	var hops, work uint64
	for p := range tally.Hops {
		hops += tally.Hops[p]
		work += tally.Work[p]
	}
	if hops != acc.Sum {
		t.Fatalf("tally hops %d != ACD sum %d", hops, acc.Sum)
	}
	if work != acc.Count {
		t.Fatalf("tally work %d != ACD count %d", work, acc.Count)
	}
}

func TestCollectFFIConsistentWithACD(t *testing.T) {
	const order = 5
	pts, err := dist.SampleUnique(dist.Exponential, rng.New(2), order, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus(2, sfc.Morton)
	tally := CollectFFI(a, topo)
	acc := fmmmodel.FFIMulti(a, []topology.Topology{topo}, fmmmodel.FFIOptions{})[0].Total()
	var hops, work uint64
	for p := range tally.Hops {
		hops += tally.Hops[p]
		work += tally.Work[p]
	}
	if hops != acc.Sum {
		t.Fatalf("tally hops %d != FFI sum %d", hops, acc.Sum)
	}
	if work != acc.Count {
		t.Fatalf("tally work %d != FFI count %d", work, acc.Count)
	}
}

// The per-rank checks below hold the matrix-backed tallies to the
// per-event stream, enumerated here one ordered event at a time and
// sharing no code with the production pipeline: near-field neighbor
// ranks come from a cell->rank map built from the assignment's owners,
// far-field representatives from quadtree.RankTree.

// nfiEvents calls fn(src, dst) for every ordered near-field event.
func nfiEvents(a *acd.Assignment, opts fmmmodel.NFIOptions, fn func(src, dst int32)) {
	pts, owners := a.KeyIndex().Set().Points(), a.Owners()
	ranks := make(map[geom.Point]int32, a.N())
	for i, pt := range pts {
		ranks[pt] = owners[i]
	}
	for i, pt := range pts {
		geom.VisitNeighborhood(pt, opts.Radius, opts.Metric, a.Side(), func(q geom.Point) {
			if r, ok := ranks[q]; ok {
				fn(owners[i], r)
			}
		})
	}
}

// ffiEvents calls fn(src, dst) for every far-field event: child to
// parent (interpolation) and parent to child (anterpolation) per link,
// and each cell to every member of its interaction list.
func ffiEvents(a *acd.Assignment, fn func(src, dst int32)) {
	tree := quadtree.BuildRankTree(a.Order, a.KeyIndex().Set().Points(), a.Owners())
	for l := tree.Order; l >= 1; l-- {
		tree.VisitCells(l, func(x, y uint32, rep int32) {
			parent := tree.Rep(l-1, x/2, y/2)
			fn(rep, parent)
			fn(parent, rep)
		})
	}
	for l := uint(2); l <= tree.Order; l++ {
		tree.VisitCells(l, func(x, y uint32, rep int32) {
			tree.InteractionList(l, x, y, func(_, _ uint32, other int32) {
				fn(rep, other)
			})
		})
	}
}

// eventTally tallies a per-event stream: one unit of work and one
// message (if it leaves the rank) per event, at the sender.
func eventTally(p int, topo topology.Topology, stream func(fn func(src, dst int32))) *Tally {
	t := NewTally(p)
	stream(func(src, dst int32) {
		t.AddWork(src, 1)
		t.Message(src, topo.Distance(int(src), int(dst)))
	})
	return t
}

// checkTally requires per-rank equality of Sends, Hops and Work.
func checkTally(t *testing.T, name string, got, want *Tally) {
	t.Helper()
	for r := range want.Work {
		if got.Sends[r] != want.Sends[r] || got.Hops[r] != want.Hops[r] || got.Work[r] != want.Work[r] {
			t.Fatalf("%s rank %d: sends/hops/work %d/%d/%d, per-event stream %d/%d/%d", name, r,
				got.Sends[r], got.Hops[r], got.Work[r], want.Sends[r], want.Hops[r], want.Work[r])
		}
	}
}

// tallyInputs returns a curve-sorted Assign input and a FromOwners
// input with particles in sampling order and shuffled ranks (not
// monotone along any curve), both over p = 64 ranks.
func tallyInputs(t *testing.T) map[string]*acd.Assignment {
	t.Helper()
	const order, n, p = 6, 400, 64
	pts, err := dist.SampleUnique(dist.Normal, rng.New(5), order, n)
	if err != nil {
		t.Fatal(err)
	}
	assigned, err := assignPoints(pts, sfc.Hilbert, order, p)
	if err != nil {
		t.Fatal(err)
	}
	perm := make([]int, n)
	rng.New(6).Perm(perm)
	ranks := make([]int32, n)
	for i, j := range perm {
		ranks[i] = int32(j * p / n)
	}
	owners, err := ownersPoints(pts, ranks, order, p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*acd.Assignment{"assign": assigned, "owners": owners}
}

// TestCollectNFIMatchesEventStream checks CollectNFI rank by rank
// against the per-event near-field stream.
func TestCollectNFIMatchesEventStream(t *testing.T) {
	topo := topology.NewTorus(3, sfc.Gray)
	for name, a := range tallyInputs(t) {
		for _, radius := range []int{1, 2} {
			for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
				opts := fmmmodel.NFIOptions{Radius: radius, Metric: m}
				want := eventTally(topo.P(), topo, func(fn func(src, dst int32)) { nfiEvents(a, opts, fn) })
				checkTally(t, fmt.Sprintf("%s r=%d %s", name, radius, m), CollectNFI(a, topo, opts), want)
			}
		}
	}
}

// TestCollectFFIMatchesEventStream checks CollectFFI rank by rank
// against the per-event far-field stream.
func TestCollectFFIMatchesEventStream(t *testing.T) {
	topo := topology.NewMesh(3, sfc.Hilbert)
	for name, a := range tallyInputs(t) {
		want := eventTally(topo.P(), topo, func(fn func(src, dst int32)) { ffiEvents(a, fn) })
		checkTally(t, name, CollectFFI(a, topo), want)
	}
}

// TestACDOrderingPredictsMakespan is the validation claim: ranking the
// curves by ACD gives the same ranking as the modeled execution time,
// for communication-dominated cost parameters.
func TestACDOrderingPredictsMakespan(t *testing.T) {
	const order, procOrder = 8, 4
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(3), order, 4000)
	if err != nil {
		t.Fatal(err)
	}
	type score struct {
		name     string
		acdVal   float64
		makespan float64
	}
	var scores []score
	for _, curve := range sfc.All() {
		a, err := assignPoints(pts, curve, order, 1<<(2*procOrder))
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.NewTorus(procOrder, curve)
		opts := fmmmodel.NFIOptions{Radius: 1, Metric: geom.MetricChebyshev}
		acc := fmmmodel.NFIMulti(a, []topology.Topology{topo}, opts)[0]
		tally := CollectNFI(a, topo, opts)
		ms, err := tally.Makespan(CostParams{Alpha: 1, Beta: 0.5, Gamma: 0})
		if err != nil {
			t.Fatal(err)
		}
		scores = append(scores, score{curve.Name(), acc.ACD(), ms})
	}
	// Hilbert must win both; rowmajor must lose both.
	best, worst := scores[0], scores[0]
	for _, s := range scores {
		if s.acdVal < best.acdVal {
			best = s
		}
		if s.acdVal > worst.acdVal {
			worst = s
		}
	}
	if best.name != "hilbert" || worst.name != "rowmajor" {
		t.Fatalf("unexpected ACD extremes: best %s worst %s", best.name, worst.name)
	}
	// The makespan is a max statistic, so curves with near-tied ACDs
	// (hilbert/morton/gray here) may swap by a few percent — that gap
	// is exactly the contention/imbalance information the ACD does not
	// carry. The validation claim is about separated curves: whenever
	// one curve's ACD is at least 2x another's, the modeled makespans
	// must order the same way.
	for i := range scores {
		for j := range scores {
			if scores[i].acdVal*2 < scores[j].acdVal && scores[i].makespan >= scores[j].makespan {
				t.Errorf("ACD and makespan orderings disagree: %s(acd %f, T %f) vs %s(acd %f, T %f)",
					scores[i].name, scores[i].acdVal, scores[i].makespan,
					scores[j].name, scores[j].acdVal, scores[j].makespan)
			}
		}
	}
	// And near-ties stay near: any makespan inversion among close-ACD
	// curves is bounded.
	for i := range scores {
		for j := range scores {
			if scores[i].acdVal < scores[j].acdVal && scores[i].makespan > scores[j].makespan {
				if math.Abs(scores[i].makespan-scores[j].makespan) > 0.2*scores[j].makespan {
					t.Errorf("large makespan inversion between %s and %s", scores[i].name, scores[j].name)
				}
			}
		}
	}
}

func TestWorkOnlyMakespanIgnoresPlacement(t *testing.T) {
	// With Gamma-only costs, the makespan is the work imbalance and
	// placement does not matter: hilbert and rowmajor tie (both
	// count-balanced with the same work profile summed per chunk size).
	const order = 6
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(4), order, 512)
	if err != nil {
		t.Fatal(err)
	}
	opts := fmmmodel.NFIOptions{Radius: 1, Metric: geom.MetricChebyshev}
	ms := map[string]float64{}
	for _, curve := range []sfc.Curve{sfc.Hilbert, sfc.RowMajor} {
		a, err := assignPoints(pts, curve, order, 16)
		if err != nil {
			t.Fatal(err)
		}
		topo := topology.NewTorus(2, curve)
		tally := CollectNFI(a, topo, opts)
		v, err := tally.Makespan(CostParams{Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		ms[curve.Name()] = v
	}
	// Not asserting exact equality (work depends on which particles
	// land in which chunk), but the ratio must be mild compared to the
	// communication-term gap (which is ~10x).
	r := ms["rowmajor"] / ms["hilbert"]
	if r > 1.5 || r < 0.67 {
		t.Errorf("work-only makespans differ unexpectedly: %v", ms)
	}
}
