package fmmmodel

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/geom"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/topology"
)

// The direct per-event oracle: the paper's §IV event streams
// enumerated one event at a time on the calling goroutine and
// accumulated per topology. It shares no lookup code with the
// production pipeline (key skeleton -> pair plan -> labelling ->
// priced replay): the near field resolves ranks through a
// cell->rank map built from the assignment's owners, and the far field
// walks the dense representative tree quadtree.RankTree. The owners
// themselves (Assignment.Owners) are the input under test here; acd's
// and keynav's tests pin them to the curve's balanced chunks.

// cellRanks maps every occupied cell of the assignment to its owner.
func cellRanks(a *acd.Assignment) map[geom.Point]int32 {
	owners := a.Owners()
	m := make(map[geom.Point]int32, a.N())
	for i, p := range a.KeyIndex().Set().Points() {
		m[p] = owners[i]
	}
	return m
}

// oracleNFIEvents calls fn(src, dst) for every ordered near-field
// event: each particle against every occupied cell within the radius
// (same-processor pairs included, src == dst).
func oracleNFIEvents(a *acd.Assignment, opts NFIOptions, fn func(src, dst int32)) {
	if opts.Radius == 0 {
		opts.Radius = 1
	}
	ranks := cellRanks(a)
	for _, p := range a.KeyIndex().Set().Points() {
		mine := ranks[p]
		geom.VisitNeighborhood(p, opts.Radius, opts.Metric, a.Side(), func(q geom.Point) {
			if r, ok := ranks[q]; ok {
				fn(mine, r)
			}
		})
	}
}

// oracleNFI accumulates the ordered near-field stream on one topology.
func oracleNFI(a *acd.Assignment, topo topology.Topology, opts NFIOptions) acd.Accumulator {
	var acc acd.Accumulator
	oracleNFIEvents(a, opts, func(src, dst int32) {
		acc.Add(topo.Distance(int(src), int(dst)))
	})
	return acc
}

// oracleFFI accumulates the far-field streams on one topology from the
// representative tree: one interpolation and one anterpolation event
// per parent-child link at every level, and one event per cell per
// member of its interaction list.
func oracleFFI(a *acd.Assignment, topo topology.Topology) FFIResult {
	tree := quadtree.BuildRankTree(a.Order, a.KeyIndex().Set().Points(), a.Owners())
	var res FFIResult
	for l := tree.Order; l >= 1; l-- {
		tree.VisitCells(l, func(x, y uint32, rep int32) {
			d := topo.Distance(int(rep), int(tree.Rep(l-1, x/2, y/2)))
			res.Interpolation.Add(d)
			res.Anterpolation.Add(d)
		})
	}
	for l := uint(2); l <= tree.Order; l++ {
		tree.VisitCells(l, func(x, y uint32, rep int32) {
			tree.InteractionList(l, x, y, func(_, _ uint32, other int32) {
				res.InteractionList.Add(topo.Distance(int(rep), int(other)))
			})
		})
	}
	return res
}

// nfiOne and ffiOne run the production pipeline on a single topology.
func nfiOne(a *acd.Assignment, topo topology.Topology, opts NFIOptions) acd.Accumulator {
	return NFIMulti(a, []topology.Topology{topo}, opts)[0]
}

func ffiOne(a *acd.Assignment, topo topology.Topology, opts FFIOptions) FFIResult {
	return FFIMulti(a, []topology.Topology{topo}, opts)[0]
}
