package fmmmodel

import (
	"fmt"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/panics"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// plainTopology hides a topology's batched kernel, so the pricer takes
// its per-pair Distance fallback.
type plainTopology struct{ topology.Topology }

// TestPricedMatchesMatrixOnShuffledOwners holds the priced path to the
// matrix path on shuffled owners, which scatter every cell's neighbors
// over unrelated ranks, so nearly every event is a distinct pair.
// NFIMulti and FFIMulti must equal the matrix contractions exactly at
// 1, 2 and 7 workers on: K = 1; K = 6 plus a topology without a batched
// kernel; the four curve tori, priced as one torus group; and seven
// tori interleaved with other kinds, one group of four and three
// leftovers priced on their own.
func TestPricedMatchesMatrixOnShuffledOwners(t *testing.T) {
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
	var curveTori []topology.Topology
	for _, c := range []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray, sfc.RowMajor} {
		curveTori = append(curveTori, topology.NewTorus(6, c))
	}
	seven := []topology.Topology{
		curveTori[0], six[0], curveTori[1], curveTori[2], six[2],
		topology.NewTorus(6, sfc.Snake), curveTori[3], plainTopology{six[3]},
		topology.NewTorus(6, sfc.Moore), six[4], six[3],
	}
	lists := [][]topology.Topology{six[3:4], append(six, plainTopology{six[3]}), curveTori, seven}
	for _, topos := range lists {
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
			got := NFIMulti(a, topos, opts)
			wantFFI := FFIMatricesFromIndex(a.KeyIndex(), p, w).ContractAll(topos, w)
			gotFFI := FFIMulti(a, topos, FFIOptions{Workers: w})
			for i, topo := range topos {
				if got[i] != want[i] {
					t.Errorf("%s %d (%s): priced NFI %+v != matrix %+v", name, i, topo.Name(), got[i], want[i])
				}
				if gotFFI[i] != wantFFI[i] {
					t.Errorf("%s %d (%s): priced FFI %+v != matrix %+v", name, i, topo.Name(), gotFFI[i], wantFFI[i])
				}
			}
		}
	}
}

// TestKernelsGroupToriFourAtATime pins the grouping rule: a call's tori
// form groups of four in list order, and the leftover tori, every
// other kind and a topology without a kernel price on their own, each
// under its own index in the list. Which of them has a kernel is
// topology.SumPairs' to decide (TestSumPairsMatchesDistance).
func TestKernelsGroupToriFourAtATime(t *testing.T) {
	torus := func() topology.Topology { return topology.NewTorus(2, sfc.Hilbert) }
	topos := []topology.Topology{
		torus(), topology.NewBus(16), torus(), torus(), plainTopology{torus()},
		torus(), torus(), topology.NewMesh(2, sfc.Gray), torus(), torus(),
	}
	k := newKernels(topos)
	if len(k.groups) != 1 || k.groups[0].at != [4]int{0, 2, 3, 5} {
		t.Fatalf("groups %+v, want one at [0 2 3 5]", k.groups)
	}
	var at []int
	for _, one := range k.single {
		at = append(at, one.at)
	}
	if fmt.Sprint(at) != "[1 4 7 6 8 9]" {
		t.Errorf("single topologies at %v, want [1 4 7 6 8 9]", at)
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

// panicTopology panics on every distance query.
type panicTopology struct{ topology.Topology }

func (panicTopology) Distance(a, b int) int { panic("distance boom") }

// TestParallelWorkerPanic prices on a topology that panics in every
// pricing worker: NFIMulti and FFIMulti must re-raise the panic on the
// caller as a *panics.Worker, at one worker and at several. The set is
// large enough that every worker fills its flush buffer.
func TestParallelWorkerPanic(t *testing.T) {
	const order = 7
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(7), order, 8000)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{panicTopology{topology.NewTorus(2, sfc.Hilbert)}}
	for _, workers := range []int{1, 3} {
		for name, f := range map[string]func(){
			"NFIMulti": func() { NFIMulti(a, topos, NFIOptions{Workers: workers}) },
			"FFIMulti": func() { FFIMulti(a, topos, FFIOptions{Workers: workers}) },
		} {
			var v any
			func() {
				defer func() { v = recover() }()
				f()
			}()
			if w, ok := v.(*panics.Worker); !ok || w.Value != "distance boom" {
				t.Errorf("%s at %d workers: recovered %#v, want a *panics.Worker of the topology's panic", name, workers, v)
			}
		}
	}
}
