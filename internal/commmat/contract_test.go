package commmat

import (
	"fmt"
	"runtime"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/obs"
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

// plainTopology hides a topology's DistanceSum, so the contraction
// prices it through per-pair Distance calls.
type plainTopology struct{ topology.Topology }

// contraction is ContractTableMulti or ContractTableMultiSym.
type contraction func(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int)

// TestFusedContractMultiEquivalence holds the contraction to the
// per-pair oracle: across builder grids (the full grid at p = 64, where
// most pairs are occupied, and at p = 1,024, and the delta band at
// p = 4,096), seeds, placement curves, all six topology kinds, Sym and
// non-Sym weighting, worker counts, and table counts (all six in one
// call, or one at a time), it must produce exactly (Sum/Count/Zeros)
// the oracle's per-table results and count exactly pairs x K distance
// queries.
func TestFusedContractMultiEquivalence(t *testing.T) {
	curves := sfc.All()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	cases := []struct {
		name string
		p, n int
	}{
		{"dense", 64, 5000},      // full grid, most pairs occupied
		{"fullCSR", 1024, 20000}, // full grid, sparse
		{"banded", 4096, 40000},  // p*p > maxScratchCells: delta band
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			curve := curves[int(seed)%len(curves)]
			t.Run(fmt.Sprintf("%s/seed%d/%s", tc.name, seed, curve.Name()), func(t *testing.T) {
				m := buildWith(tc.p, 2, randomEvents(seed, tc.p, tc.n))
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

// TestFusedDistanceQueryAccounting covers a topology without
// DistanceSum: its per-pair Distance fallback must reproduce the
// kernel's sums exactly and account the same pairs x K distance
// queries, with kernel and fallback tables mixed in one call, at any
// worker count.
func TestFusedDistanceQueryAccounting(t *testing.T) {
	curves := sfc.All()
	for _, tc := range []struct {
		name string
		p, n int
	}{
		{"dense", 64, 5000},
		{"banded", 4096, 40000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildWith(tc.p, 2, randomEvents(int64(tc.p)+3, tc.p, tc.n))
			six := sixTopologies(t, tc.p, curves[0])
			topos := append([]topology.Topology(nil), six...)
			for _, topo := range six {
				topos = append(topos, plainTopology{topo})
			}
			for _, workers := range []int{1, 3, 8} {
				got := make([]acd.Accumulator, len(topos))
				before := analytic.Value()
				m.ContractTableMultiSym(tables(topos), ptrs(got), workers)
				if delta, want := analytic.Value()-before, uint64(m.Pairs()*len(topos)); delta != want {
					t.Fatalf("workers=%d: %d distance queries, want pairs x K = %d", workers, delta, want)
				}
				for i, topo := range six {
					if fallback := got[len(six)+i]; fallback != got[i] {
						t.Fatalf("workers=%d %s: per-pair fallback %+v != DistanceSum %+v", workers, topo.Name(), fallback, got[i])
					}
				}
			}
		})
	}
}

// BenchmarkContractMulti measures the contraction against the per-pair
// oracle at 1 and 6 topologies, on the full grid (p = 256) and the
// delta band (p = 4,096).
func BenchmarkContractMulti(b *testing.B) {
	for _, form := range []struct {
		name string
		p, n int
	}{
		{"p256", 256, 60000},
		{"p4096", 4096, 120000},
	} {
		m := buildWith(form.p, 2, randomEvents(int64(form.p), form.p, form.n))
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
