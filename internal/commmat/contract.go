package commmat

import (
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/topology"
)

// ContractTableMulti contracts the matrix against every distance table,
// adding table k's contraction into accs[k]: for every (src, dst) pair
// with n events, n events at the hop distance between src and dst on
// the table's topology. The result is exactly (Sum/Count/Zeros
// equality) that of accumulating the events one by one, at any worker
// count; workers <= 1 runs on the calling goroutine.
func (m *Matrix) ContractTableMulti(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int) {
	m.contract(dts, accs, 1, workers)
}

// ContractTableMultiSym is ContractTableMulti for a symmetric-canonical
// matrix (unordered pair counts with src <= dst): every pair's events
// count once per direction, which is exact because hop distance is
// symmetric.
func (m *Matrix) ContractTableMultiSym(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int) {
	m.contract(dts, accs, 2, workers)
}

// contract splits the rows into workers contiguous ranges, sums each
// range into its own uint64 per table, and merges the ranges in order.
// The sums are exact integers, so the split never reaches the result.
// Count and Zeros are weight x events and weight x diagonal events
// whatever the topology, since hop distance is zero iff the ranks are
// equal.
func (m *Matrix) contract(dts []*topology.DistanceTable, accs []*acd.Accumulator, weight, workers int) {
	if len(dts) != len(accs) {
		panic("commmat: ContractTableMulti needs one accumulator per table")
	}
	k := len(dts)
	if k == 0 {
		return
	}
	topos := make([]topology.Topology, k)
	for t, dt := range dts {
		topos[t] = dt.Underlying()
	}
	rows := len(m.rowSrc)
	workers = max(min(workers, rows), 1)
	sums := make([]uint64, workers*k)
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.contractRows(topos, rows*w/workers, rows*(w+1)/workers, sums[w*k:(w+1)*k])
		}()
	}
	m.contractRows(topos, 0, rows/workers, sums[:k])
	wg.Wait()
	wt := uint64(weight)
	for t, acc := range accs {
		var s uint64
		for i := t; i < len(sums); i += k {
			s += sums[i]
		}
		acc.Sum += wt * s
		acc.Count += wt * m.events
		acc.Zeros += wt * m.diag
	}
	topology.CountDistanceQueries(uint64(m.pairs) * uint64(k))
}

// contractRows sums rows [lo, hi) into sums[t] for each topology: one
// DistanceSum dispatch per row, or per-pair Distance calls on a
// topology without one.
func (m *Matrix) contractRows(topos []topology.Topology, lo, hi int, sums []uint64) {
	for t, topo := range topos {
		pc, _ := topo.(topology.PairContractor)
		var s uint64
		for r := lo; r < hi; r++ {
			src := int(m.rowSrc[r])
			dsts, ns := m.dsts[m.rowStart[r]:m.rowStart[r+1]], m.counts[m.rowStart[r]:m.rowStart[r+1]]
			if pc != nil {
				s += pc.DistanceSum(src, dsts, ns)
				continue
			}
			for i, d := range dsts {
				s += uint64(topo.Distance(src, int(d))) * uint64(ns[i])
			}
		}
		sums[t] = s
	}
}
