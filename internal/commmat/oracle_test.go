package commmat

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/topology"
)

// seqContract is the per-pair oracle the contraction must reproduce:
// one table at a time, every pair's events at the topology's own
// Distance, weighted by weight (2 for symmetric-canonical matrices).
// It counts no distance queries.
func seqContract(m *Matrix, topo topology.Topology, acc *acd.Accumulator, weight int) {
	for r, src := range m.rowSrc {
		for i := m.rowStart[r]; i < m.rowStart[r+1]; i++ {
			acc.AddN(topo.Distance(int(src), int(m.dsts[i])), weight*int(m.counts[i]))
		}
	}
}
