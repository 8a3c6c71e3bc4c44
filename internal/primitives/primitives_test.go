package primitives

import (
	"testing"

	"sfcacd/internal/panics"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

func TestBroadcastEventCount(t *testing.T) {
	// A binomial broadcast to p processors has exactly p-1 sends.
	for _, p := range []int{1, 2, 3, 5, 8, 16, 17, 64} {
		topo := topology.NewBus(p)
		res := Broadcast(topo, 0)
		if res.Count != uint64(p-1) {
			t.Errorf("p=%d: %d events, want %d", p, res.Count, p-1)
		}
	}
}

func TestBroadcastOnBusKnownSum(t *testing.T) {
	// Bus of 8, root 0: rounds send 0->1 (1), 0->2,1->3 (2+2),
	// 0->4,1->5,2->6,3->7 (4*4) -> sum 21.
	res := Broadcast(topology.NewBus(8), 0)
	if res.Sum != 21 || res.Count != 7 {
		t.Fatalf("bus broadcast = %+v", res)
	}
}

func TestBroadcastHypercubeOptimal(t *testing.T) {
	// On the hypercube the binomial tree maps perfectly: every send is
	// one hop.
	res := Broadcast(topology.NewHypercube(5), 0)
	if res.Sum != res.Count {
		t.Fatalf("hypercube broadcast not all unit hops: %+v", res)
	}
}

func TestBroadcastRootInvariantOnRing(t *testing.T) {
	// Ring distances depend only on rank differences, so rotating the
	// root leaves the broadcast accumulator unchanged.
	topo := topology.NewRing(16)
	base := Broadcast(topo, 0)
	for _, root := range []int{1, 5, 15} {
		if got := Broadcast(topo, root); got != base {
			t.Errorf("root %d: %+v != %+v", root, got, base)
		}
	}
}

func TestReduceEqualsBroadcast(t *testing.T) {
	topo := topology.NewRing(9)
	if Reduce(topo, 3) != Broadcast(topo, 3) {
		t.Error("reduce != broadcast")
	}
}

func TestAllToAll(t *testing.T) {
	topo := topology.NewRing(6)
	res := AllToAll(topo)
	if res.Count != 30 {
		t.Fatalf("events = %d, want 30", res.Count)
	}
	// Ring of 6: distances from any node sum to 1+2+3+2+1 = 9; total
	// 6*9 = 54.
	if res.Sum != 54 {
		t.Fatalf("sum = %d, want 54", res.Sum)
	}
}

func TestParallelPrefixEventCount(t *testing.T) {
	// Hillis-Steele on p=8: rounds have 7+6+4 = 17 receives.
	res := ParallelPrefix(topology.NewBus(8))
	if res.Count != 17 {
		t.Fatalf("events = %d, want 17", res.Count)
	}
	// On a bus the stride-s round costs s per receive:
	// 7*1 + 6*2 + 4*4 = 35.
	if res.Sum != 35 {
		t.Fatalf("sum = %d, want 35", res.Sum)
	}
}

func TestRingExchange(t *testing.T) {
	res := RingExchange(topology.NewRing(10))
	if res.Count != 10 || res.Sum != 10 {
		t.Fatalf("ring exchange on ring = %+v, want all unit hops", res)
	}
	// On a bus the wrap message costs p-1.
	res = RingExchange(topology.NewBus(10))
	if res.Count != 10 || res.Sum != 9+9 {
		t.Fatalf("ring exchange on bus = %+v", res)
	}
}

func TestQuadTreeGatherEventCount(t *testing.T) {
	// p=16: level 1 has 4 groups * 3 children, level 2 has 1 group * 3.
	res := QuadTreeGather(topology.NewBus(16))
	if res.Count != 15 {
		t.Fatalf("events = %d, want 15", res.Count)
	}
	// p=1: nothing to gather.
	if res := QuadTreeGather(topology.NewBus(1)); res.Count != 0 {
		t.Fatalf("p=1 gather = %+v", res)
	}
	// Ragged p=6: level 1 groups {0..3} (3 children) and {4,5}
	// (1 child), level 2 group {0,4} (1 child): 5 events.
	res = QuadTreeGather(topology.NewBus(6))
	if res.Count != 5 {
		t.Fatalf("ragged events = %d, want 5", res.Count)
	}
}

func TestHilbertPlacementImprovesPrimitivesOnMesh(t *testing.T) {
	// Rank-adjacent communication dominates these primitives, so a
	// locality-preserving placement must beat row-major on the mesh for
	// the ring exchange.
	h := RingExchange(topology.NewMesh(3, sfc.Hilbert))
	r := RingExchange(topology.NewMesh(3, sfc.RowMajor))
	if h.Sum >= r.Sum {
		t.Errorf("hilbert ring sum %d >= rowmajor %d", h.Sum, r.Sum)
	}
}

func TestPatternsRunAll(t *testing.T) {
	topo := topology.NewTorus(2, sfc.Hilbert)
	for _, p := range Patterns() {
		res := p.Run(topo)
		if res.Count == 0 {
			t.Errorf("pattern %s produced no events", p.Name)
		}
	}
	if len(Patterns()) != 5 {
		t.Errorf("expected 5 patterns")
	}
}

// panicTopology panics on any distance from rank src.
type panicTopology struct {
	topology.Topology
	src int
}

func (pt panicTopology) Distance(a, b int) int {
	if a == pt.src {
		panic("distance boom")
	}
	return pt.Topology.Distance(a, b)
}

// TestAllToAllWorkerPanic panics the topology on the last source rank,
// which the last chunk's worker prices: the panic must reach the
// caller as a *panics.Worker rather than end the process.
func TestAllToAllWorkerPanic(t *testing.T) {
	const p = 64
	var v any
	func() {
		defer func() { v = recover() }()
		AllToAll(panicTopology{topology.NewRing(p), p - 1})
	}()
	if w, ok := v.(*panics.Worker); !ok || w.Value != "distance boom" {
		t.Fatalf("recovered %#v, want a *panics.Worker of the topology's panic", v)
	}
}
