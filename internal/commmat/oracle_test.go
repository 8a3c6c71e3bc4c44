package commmat

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/topology"
)

// The sequential per-table contraction the fused pass must reproduce:
// one table at a time, row by row, asking the distance table for each
// source row with the row's lookup volume and answering rows it
// declines with direct Distance calls, flushed to the distance-query
// counter once per table. The fused pass's plan step replays exactly
// this RowFor sequence, so the oracle pins both its sums and its
// topology.distance.analytic accounting.

// seqContract adds the matrix's contraction against one table into
// acc, every event weighted by weight (2 for symmetric-canonical
// matrices).
func seqContract(m *Matrix, dt *topology.DistanceTable, acc *acd.Accumulator, weight int) {
	t := dt.Underlying()
	direct := uint64(0)
	if m.dense != nil {
		for src := 0; src < m.p; src++ {
			base := src * m.p
			if row := dt.RowFor(src, m.p); row != nil {
				for dst := 0; dst < m.p; dst++ {
					if n := m.dense[base+dst]; n != 0 {
						acc.AddN(int(row[dst]), weight*int(n))
					}
				}
				continue
			}
			for dst := 0; dst < m.p; dst++ {
				if n := m.dense[base+dst]; n != 0 {
					acc.AddN(t.Distance(src, dst), weight*int(n))
					direct++
				}
			}
		}
		topology.CountDistanceQueries(direct)
		return
	}
	for r, src := range m.rowSrc {
		lo, hi := m.rowStart[r], m.rowStart[r+1]
		if row := dt.RowFor(int(src), int(hi-lo)); row != nil {
			for i := lo; i < hi; i++ {
				acc.AddN(int(row[m.dsts[i]]), weight*int(m.counts[i]))
			}
			continue
		}
		for i := lo; i < hi; i++ {
			acc.AddN(t.Distance(int(src), int(m.dsts[i])), weight*int(m.counts[i]))
		}
		direct += uint64(hi - lo)
	}
	topology.CountDistanceQueries(direct)
}
