package fmmmodel

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/keynav"
	"sfcacd/internal/topology"
)

// This file builds topology-independent communication matrices
// (internal/commmat) from the rank-pair replay (replay.go), serially.
// No experiment reads them: they serve the benchmark's matrix-path
// breakdown (perfbench) and the differential tests. Contracting a
// matrix against a topology reproduces the accumulator of the ordered
// per-event stream bit for bit (the differential tests pin this
// against a direct per-event oracle and against the priced path). Two
// symmetries cut the aggregation work in half:
//
//   - The near-field and interaction-list relations are symmetric, so
//     both replays visit each unordered pair once, and the matrices
//     store it in canonical src <= dst form; the Sym contractions
//     weight every pair by both directions.
//   - The anterpolation stream is the interpolation stream reversed,
//     and hop distance is symmetric, so one interpolation matrix and
//     one contraction serve both accumulators.
//
// The far-field matrices stay separate per communication type so
// FFIResult's breakdown survives aggregation.

// NFIMatrix aggregates the assignment's near-field event stream into a
// symmetric-canonical matrix: every unordered particle pair within
// opts.Radius contributes one event between the owning ranks, keyed
// with the smaller rank as source. The pairs come from VisitNFI.
// Contract with the Sym variant; each pair then counts once per
// direction, exactly reproducing the ordered stream. It is timed as a
// commmat.build.nfi phase under opts.Parent, with commmat.finalize
// (and keynav.plan, when it records the plan) beneath.
func NFIMatrix(a *acd.Assignment, opts NFIOptions) *commmat.Matrix {
	build := opts.Parent.Child("commmat.build.nfi")
	defer build.End()
	opts.Parent = build
	b := commmat.NewBuilder(a.P)
	VisitNFI(a, opts, func(r, q int32) { b.Add(min(r, q), max(r, q)) })
	return b.Finalize(build)
}

// FFIMatrices holds the far-field communication matrices by type.
type FFIMatrices struct {
	// Interpolation aggregates the child-parent representative links of
	// every level, one event per link, keyed (parent, child) — the
	// canonical orientation, since a parent's representative is the
	// minimum over its children's. Hop distance is a metric (symmetric),
	// so one weight-1 contraction of this matrix yields both the
	// interpolation and the anterpolation accumulator; neither direction
	// is duplicated here.
	Interpolation *commmat.Matrix
	// InteractionList aggregates the well-separated cell exchanges of
	// every level in symmetric-canonical form (each unordered cell pair
	// once, smaller rank as source); contract with the Sym variant.
	InteractionList *commmat.Matrix
}

// FFIMatricesFromIndex aggregates the far-field event streams of an
// assignment over p ranks from its labelling: the same streams a walk
// over the representative quadtree (quadtree.RankTree) produces, as
// VisitFFI replays them. workers bounds the recording of the set's
// far-field plan on first use. It records no phases.
func FFIMatricesFromIndex(ix *keynav.Index, p, workers int) FFIMatrices {
	bi, bl := commmat.NewBuilder(p), commmat.NewBuilder(p)
	// Parent representatives are minima over children, so (parent,
	// child) is already canonical.
	VisitFFI(ix, workers, bi.Add, func(r, q int32) { bl.Add(min(r, q), max(r, q)) })
	return FFIMatrices{Interpolation: bi.Finalize(nil), InteractionList: bl.Finalize(nil)}
}

// ContractAll contracts the far-field matrices against every topology,
// one contraction per matrix. Parallelism lives inside each matrix and
// is bounded by workers; results are byte-identical at any worker count
// and equal FFIMulti's. The anterpolation accumulator reuses the
// interpolation contraction because hop distance is symmetric.
func (ms FFIMatrices) ContractAll(topos []topology.Topology, workers int) []FFIResult {
	res := make([]FFIResult, len(topos))
	if len(topos) == 0 {
		return res
	}
	dts := make([]*topology.DistanceTable, len(topos))
	interp := make([]*acd.Accumulator, len(topos))
	il := make([]*acd.Accumulator, len(topos))
	for t, topo := range topos {
		dts[t] = topology.NewDistanceTable(topo)
		interp[t] = &res[t].Interpolation
		il[t] = &res[t].InteractionList
	}
	ms.Interpolation.ContractTableMulti(dts, interp, workers)
	ms.InteractionList.ContractTableMultiSym(dts, il, workers)
	for t := range res {
		res[t].Anterpolation = res[t].Interpolation
	}
	for t := range res {
		res[t].record()
	}
	return res
}
