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

// sixTopologies instantiates one of every topology kind over p ranks
// (p must be a power of 4), placing mesh and torus along the given
// curve.
func sixTopologies(t *testing.T, p int, placement sfc.Curve) []topology.Topology {
	t.Helper()
	topos := make([]topology.Topology, 0, len(topology.Kinds))
	for _, kind := range topology.Kinds {
		topo, err := topology.New(kind, p, placement)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return topos
}

// freshTables wraps each topology in its own unused distance table, so
// the ski-rental state (pending lookups, materialized rows) starts
// identical for every contraction path under comparison.
func freshTables(topos []topology.Topology) []*topology.DistanceTable {
	dts := make([]*topology.DistanceTable, len(topos))
	for i, topo := range topos {
		dts[i] = topology.NewDistanceTable(topo)
	}
	return dts
}

// contractEach runs the fused pass once per topology (K = 1), each on
// a fresh table, and returns the accumulators.
func contractEach(topos []topology.Topology, contract func(dts []*topology.DistanceTable, accs []*acd.Accumulator)) []acd.Accumulator {
	got := make([]acd.Accumulator, len(topos))
	for i := range topos {
		contract(freshTables(topos[i:i+1]), []*acd.Accumulator{&got[i]})
	}
	return got
}

// TestFusedContractMultiEquivalence is the fused-vs-sequential
// property test: across matrix forms (dense, full-grid CSR, banded
// CSR), seeds, placement curves, all six topology kinds, Sym and
// non-Sym weighting, worker counts, and table counts (all six in one
// pass, or one at a time), the fused pass must produce exactly
// (Sum/Count/Zeros) the sequential oracle's per-table results.
func TestFusedContractMultiEquivalence(t *testing.T) {
	curves := sfc.All()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	cases := []struct {
		name string
		p, n int
	}{
		{"dense", 64, 5000},      // p*p <= denseCells
		{"fullCSR", 1024, 20000}, // full grid, CSR output
		{"banded", 4096, 40000},  // p*p > maxScratchCells: delta band
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			curve := curves[int(seed)%len(curves)]
			t.Run(fmt.Sprintf("%s/seed%d/%s", tc.name, seed, curve.Name()), func(t *testing.T) {
				m := buildWith(tc.p, 2, randomEvents(seed, tc.p, tc.n))
				topos := sixTopologies(t, tc.p, curve)

				// Sequential oracle on fresh tables, per weighting.
				seq := make([]acd.Accumulator, len(topos))
				seqSym := make([]acd.Accumulator, len(topos))
				for i, dt := range freshTables(topos) {
					seqContract(m, dt, &seq[i], 1)
				}
				for i, dt := range freshTables(topos) {
					seqContract(m, dt, &seqSym[i], 2)
				}

				for _, workers := range workerCounts {
					got := make([]acd.Accumulator, len(topos))
					accs := make([]*acd.Accumulator, len(topos))
					for i := range got {
						accs[i] = &got[i]
					}
					m.ContractTableMulti(freshTables(topos), accs, workers)
					for i := range topos {
						if got[i] != seq[i] {
							t.Fatalf("workers=%d topo=%s: fused %+v != sequential %+v",
								workers, topos[i].Name(), got[i], seq[i])
						}
						got[i] = acd.Accumulator{}
					}
					m.ContractTableMultiSym(freshTables(topos), accs, workers)
					for i := range topos {
						if got[i] != seqSym[i] {
							t.Fatalf("workers=%d topo=%s: fused Sym %+v != sequential %+v",
								workers, topos[i].Name(), got[i], seqSym[i])
						}
					}
					one := contractEach(topos, func(dts []*topology.DistanceTable, accs []*acd.Accumulator) {
						m.ContractTableMulti(dts, accs, workers)
					})
					oneSym := contractEach(topos, func(dts []*topology.DistanceTable, accs []*acd.Accumulator) {
						m.ContractTableMultiSym(dts, accs, workers)
					})
					for i := range topos {
						if one[i] != seq[i] || oneSym[i] != seqSym[i] {
							t.Fatalf("workers=%d topo=%s: one-table fused %+v / Sym %+v != sequential %+v / %+v",
								workers, topos[i].Name(), one[i], oneSym[i], seq[i], seqSym[i])
						}
					}
				}
			})
		}
	}
}

// TestFusedDistanceQueryAccounting pins the fused pass's
// topology.distance.analytic accounting against the sequential oracle:
// the serial plan step replays the sequential RowFor sequence per
// table, so the same rows materialize and the same per-table direct
// Distance calls are tallied — at any worker count, whether the tables
// share one pass or each runs alone.
func TestFusedDistanceQueryAccounting(t *testing.T) {
	counter := obs.GetCounter("topology.distance.analytic")
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
			topos := sixTopologies(t, tc.p, curves[0])

			before := counter.Value()
			for _, dt := range freshTables(topos) {
				var acc acd.Accumulator
				seqContract(m, dt, &acc, 2)
			}
			seqDelta := counter.Value() - before

			for _, workers := range []int{1, 3, 8} {
				got := make([]acd.Accumulator, len(topos))
				accs := make([]*acd.Accumulator, len(topos))
				for i := range got {
					accs[i] = &got[i]
				}
				before = counter.Value()
				m.ContractTableMultiSym(freshTables(topos), accs, workers)
				if delta := counter.Value() - before; delta != seqDelta {
					t.Fatalf("workers=%d: fused pass recorded %d distance queries, sequential %d",
						workers, delta, seqDelta)
				}
				before = counter.Value()
				contractEach(topos, func(dts []*topology.DistanceTable, accs []*acd.Accumulator) {
					m.ContractTableMultiSym(dts, accs, workers)
				})
				if delta := counter.Value() - before; delta != seqDelta {
					t.Fatalf("workers=%d: one-table passes recorded %d distance queries, sequential %d",
						workers, delta, seqDelta)
				}
			}
		})
	}
}

// BenchmarkContractMulti measures the fused pass against the
// sequential per-table oracle at 1 and 6 topologies on both matrix
// forms. The 6-topology fused case is the headline: one pair stream
// instead of six, and the topology-independent tallies computed once.
func BenchmarkContractMulti(b *testing.B) {
	curves := sfc.All()
	for _, form := range []struct {
		name string
		p, n int
	}{
		{"dense", 256, 60000},
		{"csr", 4096, 120000},
	} {
		m := buildWith(form.p, 2, randomEvents(int64(form.p), form.p, form.n))
		allTopos := make([]topology.Topology, 0, len(topology.Kinds))
		for _, kind := range topology.Kinds {
			topo, err := topology.New(kind, form.p, curves[0])
			if err != nil {
				b.Fatal(err)
			}
			allTopos = append(allTopos, topo)
		}
		for _, k := range []int{1, 6} {
			topos := allTopos[:k]
			dts := freshTablesB(topos)
			// Warm the tables so both variants contract fully
			// materialized rows; the benchmark isolates contraction.
			warm := make([]acd.Accumulator, k)
			for i, dt := range dts {
				seqContract(m, dt, &warm[i], 2)
			}
			b.Run(fmt.Sprintf("%s/topos=%d/seq", form.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					accs := make([]acd.Accumulator, k)
					for j, dt := range dts {
						seqContract(m, dt, &accs[j], 2)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/topos=%d/fused", form.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					accs := make([]acd.Accumulator, k)
					ptrs := make([]*acd.Accumulator, k)
					for j := range accs {
						ptrs[j] = &accs[j]
					}
					m.ContractTableMultiSym(dts, ptrs, 1)
				}
			})
		}
	}
}

func freshTablesB(topos []topology.Topology) []*topology.DistanceTable {
	dts := make([]*topology.DistanceTable, len(topos))
	for i, topo := range topos {
		dts[i] = topology.NewDistanceTable(topo)
	}
	return dts
}
