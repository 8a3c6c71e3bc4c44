package commmat

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/panics"
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
// pair's count x Distance of each range into its own uint64 per table,
// and merges the ranges in order. The sums are exact integers, so the
// split never reaches the result. Count and Zeros are weight x events
// and weight x diagonal events whatever the topology, since hop
// distance is zero iff the ranks are equal.
func (m *Matrix) contract(dts []*topology.DistanceTable, accs []*acd.Accumulator, weight, workers int) {
	if len(dts) != len(accs) {
		panic("commmat: ContractTableMulti needs one accumulator per table")
	}
	k := len(dts)
	if k == 0 {
		return
	}
	rows := len(m.rowSrc)
	workers = max(min(workers, rows), 1)
	sums := make([]uint64, workers*k)
	panics.Parallel(workers, workers, func(_, task int) {
		lo, hi := rows*task/workers, rows*(task+1)/workers
		for t, dt := range dts {
			topo := dt.Underlying()
			var s uint64
			for r := lo; r < hi; r++ {
				src := int(m.rowSrc[r])
				for i := m.rowStart[r]; i < m.rowStart[r+1]; i++ {
					s += uint64(topo.Distance(src, int(m.dsts[i]))) * uint64(m.counts[i])
				}
			}
			sums[task*k+t] = s
		}
	})
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
