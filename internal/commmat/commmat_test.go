package commmat

import (
	"fmt"
	"math/rand"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/topology"
)

// refMatrix is the brute-force reference: a plain map from packed
// (src, dst) to count.
type refMatrix map[uint64]uint32

func (r refMatrix) add(src, dst int32) {
	r[uint64(uint32(src))<<32|uint64(uint32(dst))]++
}

// randomEvents yields a deterministic event stream over p ranks whose
// deltas mix tight forward locality (the canonical src <= dst form of
// the symmetric streams) with occasional far jumps, including dst < src
// pairs and diagonal events.
func randomEvents(seed int64, p, n int) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	events := make([][2]int32, n)
	for i := range events {
		src := int32(rng.Intn(p))
		var dst int32
		switch rng.Intn(10) {
		case 0: // far jump anywhere
			dst = int32(rng.Intn(p))
		case 1: // behind the source
			dst = src - int32(rng.Intn(64))
			if dst < 0 {
				dst = 0
			}
		default: // tight forward locality
			dst = src + int32(rng.Intn(48))
			if dst >= int32(p) {
				dst = int32(p) - 1
			}
		}
		events[i] = [2]int32{src, dst}
	}
	return events
}

// visit calls fn for every pair of m, in CSR order.
func visit(m *Matrix, fn func(src, dst int32, n uint32)) {
	for r, src := range m.rowSrc {
		for i := m.rowStart[r]; i < m.rowStart[r+1]; i++ {
			fn(src, m.dsts[i], m.counts[i])
		}
	}
}

// checkAgainstRef verifies the matrix against the brute-force map,
// its event and diagonal totals, and that its pairs are in strictly
// ascending (src, dst) order.
func checkAgainstRef(t *testing.T, m *Matrix, ref refMatrix) {
	t.Helper()
	var events, diag uint64
	seen := 0
	prev := int64(-1)
	visit(m, func(src, dst int32, n uint32) {
		if src == dst {
			diag += uint64(n)
		}
		key := int64(src)<<32 | int64(dst)
		if key <= prev {
			t.Fatalf("pairs not ascending: (%d,%d) after %d", src, dst, prev)
		}
		prev = key
		want := ref[uint64(uint32(src))<<32|uint64(uint32(dst))]
		if n != want {
			t.Fatalf("pair (%d,%d): got %d events, want %d", src, dst, n, want)
		}
		seen++
		events += uint64(n)
	})
	if seen != len(ref) {
		t.Fatalf("matrix has %d pairs, reference has %d", seen, len(ref))
	}
	if m.Pairs() != len(ref) || m.Events() != events || m.diag != diag {
		t.Fatalf("accounting: Pairs=%d Events=%d diagonal=%d, want %d/%d/%d", m.Pairs(), m.Events(), m.diag, len(ref), events, diag)
	}
}

func build(p int, events [][2]int32) *Matrix {
	b := NewBuilder(p)
	for _, e := range events {
		b.Add(e[0], e[1])
	}
	return b.Finalize(nil)
}

// TestBuilderMatchesBruteForce holds the builder to a map of pair
// counts, at a p where most pairs are occupied (64), sparse ones (600
// and 4,096) and one far beyond the stream (200,000).
func TestBuilderMatchesBruteForce(t *testing.T) {
	cases := []struct{ p, n int }{{64, 5000}, {600, 20000}, {4096, 40000}, {200000, 3000}}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("p=%d", tc.p), func(t *testing.T) {
			events := randomEvents(int64(tc.p), tc.p, tc.n)
			ref := refMatrix{}
			for _, e := range events {
				ref.add(e[0], e[1])
			}
			checkAgainstRef(t, build(tc.p, events), ref)
		})
	}
}

// TestShuffledStreamEqual: the finalized matrix does not depend on
// the order the events were added in.
func TestShuffledStreamEqual(t *testing.T) {
	const p, n = 4096, 30000
	events := randomEvents(11, p, n)
	base := build(p, events)
	rng := rand.New(rand.NewSource(12))
	for range 3 {
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		if !Equal(build(p, events), base) {
			t.Fatal("a shuffled stream built a different matrix")
		}
	}
}

// TestContractEquivalence: the contraction against one table equals
// per-event accumulation, as does the per-pair oracle, and the Sym
// variant weights each pair exactly twice.
func TestContractEquivalence(t *testing.T) {
	for _, p := range []int{64, 600, 4096} {
		events := randomEvents(int64(p)+1, p, 20000)
		m := build(p, events)
		topo := topology.NewBus(p)

		var direct acd.Accumulator
		for _, e := range events {
			direct.Add(topo.Distance(int(e[0]), int(e[1])))
		}
		var viaOracle, viaContract, sym acd.Accumulator
		seqContract(m, topo, &viaOracle, 1)
		m.ContractTableMulti([]*topology.DistanceTable{topology.NewDistanceTable(topo)}, []*acd.Accumulator{&viaContract}, 2)
		m.ContractTableMultiSym([]*topology.DistanceTable{topology.NewDistanceTable(topo)}, []*acd.Accumulator{&sym}, 2)

		if viaOracle != direct {
			t.Fatalf("p=%d: per-pair oracle %+v != direct %+v", p, viaOracle, direct)
		}
		if viaContract != direct {
			t.Fatalf("p=%d: ContractTableMulti %+v != direct %+v", p, viaContract, direct)
		}
		want := acd.Accumulator{Sum: 2 * direct.Sum, Count: 2 * direct.Count, Zeros: 2 * direct.Zeros}
		if sym != want {
			t.Fatalf("p=%d: Sym contraction %+v != doubled %+v", p, sym, want)
		}
	}
}

// TestEqualDetectsDifferences spot-checks Equal's negative cases.
func TestEqualDetectsDifferences(t *testing.T) {
	mk := func(pairs ...[2]int32) *Matrix { return build(16, pairs) }
	a := mk([2]int32{1, 2}, [2]int32{1, 2}, [2]int32{3, 7})
	if !Equal(a, mk([2]int32{1, 2}, [2]int32{3, 7}, [2]int32{1, 2})) {
		t.Fatalf("order-insensitive streams compared unequal")
	}
	if Equal(a, mk([2]int32{1, 2}, [2]int32{3, 7})) {
		t.Fatalf("different event counts compared equal")
	}
	if Equal(a, mk([2]int32{1, 2}, [2]int32{1, 2}, [2]int32{3, 8})) {
		t.Fatalf("different pair sets compared equal")
	}
}
