package commmat

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// analytic counts the distance queries the contraction accounts.
var analytic = obs.GetCounter("topology.distance.analytic")

// sixTopologies instantiates one of every topology kind over p ranks
// (p must be a power of 4), placing mesh and torus along the given
// curve.
func sixTopologies(tb testing.TB, p int, placement sfc.Curve) []topology.Topology {
	tb.Helper()
	topos := make([]topology.Topology, 0, len(topology.Kinds))
	for _, kind := range topology.Kinds {
		topo, err := topology.New(kind, p, placement)
		if err != nil {
			tb.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return topos
}

// tables wraps each topology in a distance table.
func tables(topos []topology.Topology) []*topology.DistanceTable {
	dts := make([]*topology.DistanceTable, len(topos))
	for i, topo := range topos {
		dts[i] = topology.NewDistanceTable(topo)
	}
	return dts
}

// ptrs returns a pointer to each accumulator.
func ptrs(accs []acd.Accumulator) []*acd.Accumulator {
	out := make([]*acd.Accumulator, len(accs))
	for i := range accs {
		out[i] = &accs[i]
	}
	return out
}

// countingTopology counts the Distance calls made on a topology.
type countingTopology struct {
	topology.Topology
	calls *atomic.Uint64
}

func (c countingTopology) Distance(a, b int) int {
	c.calls.Add(1)
	return c.Topology.Distance(a, b)
}

// contraction is ContractTableMulti or ContractTableMultiSym.
type contraction func(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int)

// TestFusedContractMultiEquivalence holds the contraction to the
// per-pair oracle: across matrix sizes (p = 64, where most pairs are
// occupied, 1,024 and 4,096), seeds, placement curves, all six
// topology kinds, Sym and non-Sym weighting, worker counts, and table
// counts (all six in one call, or one at a time), it must produce
// exactly (Sum/Count/Zeros) the oracle's per-table results and count
// exactly pairs x K distance queries.
func TestFusedContractMultiEquivalence(t *testing.T) {
	curves := sfc.All()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	cases := []struct{ p, n int }{{64, 5000}, {1024, 20000}, {4096, 40000}}
	for _, tc := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			curve := curves[int(seed)%len(curves)]
			t.Run(fmt.Sprintf("p=%d/seed%d/%s", tc.p, seed, curve.Name()), func(t *testing.T) {
				m := build(tc.p, randomEvents(seed, tc.p, tc.n))
				topos := sixTopologies(t, tc.p, curve)
				seq := make([]acd.Accumulator, len(topos))
				seqSym := make([]acd.Accumulator, len(topos))
				for i, topo := range topos {
					seqContract(m, topo, &seq[i], 1)
					seqContract(m, topo, &seqSym[i], 2)
				}
				wantQueries := uint64(m.Pairs() * len(topos))
				for _, workers := range workerCounts {
					for _, c := range []struct {
						name     string
						contract contraction
						want     []acd.Accumulator
					}{
						{"ContractTableMulti", m.ContractTableMulti, seq},
						{"ContractTableMultiSym", m.ContractTableMultiSym, seqSym},
					} {
						all := make([]acd.Accumulator, len(topos))
						before := analytic.Value()
						c.contract(tables(topos), ptrs(all), workers)
						if got := analytic.Value() - before; got != wantQueries {
							t.Fatalf("workers=%d %s: %d distance queries, want pairs x K = %d", workers, c.name, got, wantQueries)
						}
						one := make([]acd.Accumulator, len(topos))
						before = analytic.Value()
						for i := range topos {
							c.contract(tables(topos[i:i+1]), ptrs(one[i:i+1]), workers)
						}
						if got := analytic.Value() - before; got != wantQueries {
							t.Fatalf("workers=%d one-table %s: %d distance queries, want pairs x K = %d", workers, c.name, got, wantQueries)
						}
						for i := range topos {
							if all[i] != c.want[i] || one[i] != c.want[i] {
								t.Fatalf("workers=%d topo=%s: %s %+v / one table %+v != oracle %+v",
									workers, topos[i].Name(), c.name, all[i], one[i], c.want[i])
							}
						}
					}
				}
			})
		}
	}
}

// TestFusedDistanceQueryAccounting holds the query count the
// contraction reports to the Distance calls it makes: one per pair and
// table, pairs x K in all, with K = 12 tables (each kind twice, once
// behind a call counter) in one call, at any worker count. The counted
// tables must price exactly as their uncounted twins.
func TestFusedDistanceQueryAccounting(t *testing.T) {
	curves := sfc.All()
	for _, tc := range []struct{ p, n int }{{64, 5000}, {4096, 40000}} {
		t.Run(fmt.Sprintf("p=%d", tc.p), func(t *testing.T) {
			m := build(tc.p, randomEvents(int64(tc.p)+3, tc.p, tc.n))
			six := sixTopologies(t, tc.p, curves[0])
			var calls atomic.Uint64
			topos := append([]topology.Topology(nil), six...)
			for _, topo := range six {
				topos = append(topos, countingTopology{topo, &calls})
			}
			for _, workers := range []int{1, 3, 8} {
				got := make([]acd.Accumulator, len(topos))
				before := analytic.Value()
				calls.Store(0)
				m.ContractTableMultiSym(tables(topos), ptrs(got), workers)
				if delta, want := analytic.Value()-before, uint64(m.Pairs()*len(topos)); delta != want {
					t.Fatalf("workers=%d: %d distance queries, want pairs x K = %d", workers, delta, want)
				}
				if n, want := calls.Load(), uint64(m.Pairs()*len(six)); n != want {
					t.Fatalf("workers=%d: %d Distance calls on the counted tables, want pairs x 6 = %d", workers, n, want)
				}
				for i, topo := range six {
					if counted := got[len(six)+i]; counted != got[i] {
						t.Fatalf("workers=%d %s: counted %+v != plain %+v", workers, topo.Name(), counted, got[i])
					}
				}
			}
		})
	}
}

// panicTopology panics on any distance from src.
type panicTopology struct {
	topology.Topology
	src int
}

func (pt panicTopology) Distance(a, b int) int {
	if a == pt.src {
		panic(fmt.Sprintf("distance from rank %d", a))
	}
	return pt.Topology.Distance(a, b)
}

// TestContractWorkerPanic panics the topology on the last row, the
// last of three row ranges: the panic must reach the caller as a
// *panics.Worker rather than end the process, whichever worker
// contracts that range.
func TestContractWorkerPanic(t *testing.T) {
	m := build(64, randomEvents(5, 64, 2000))
	last := int(m.rowSrc[len(m.rowSrc)-1])
	topo := panicTopology{topology.NewBus(64), last}
	var v any
	func() {
		defer func() { v = recover() }()
		var acc acd.Accumulator
		m.ContractTableMulti(tables([]topology.Topology{topo}), []*acd.Accumulator{&acc}, 3)
	}()
	if w, ok := v.(*panics.Worker); !ok || w.Value != fmt.Sprintf("distance from rank %d", last) {
		t.Fatalf("recovered %#v, want a *panics.Worker of the topology's panic", v)
	}
}

// BenchmarkContractMulti measures the contraction against the per-pair
// oracle at 1 and 6 topologies, at p = 256 and p = 4,096.
func BenchmarkContractMulti(b *testing.B) {
	for _, form := range []struct {
		name string
		p, n int
	}{
		{"p256", 256, 60000},
		{"p4096", 4096, 120000},
	} {
		m := build(form.p, randomEvents(int64(form.p), form.p, form.n))
		six := sixTopologies(b, form.p, sfc.All()[0])
		for _, k := range []int{1, 6} {
			topos := six[:k]
			dts := tables(topos)
			b.Run(fmt.Sprintf("%s/topos=%d/oracle", form.name, k), func(b *testing.B) {
				for range b.N {
					accs := make([]acd.Accumulator, k)
					for j, topo := range topos {
						seqContract(m, topo, &accs[j], 2)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/topos=%d/contract", form.name, k), func(b *testing.B) {
				for range b.N {
					accs := make([]acd.Accumulator, k)
					m.ContractTableMultiSym(dts, ptrs(accs), 1)
				}
			})
		}
	}
}
