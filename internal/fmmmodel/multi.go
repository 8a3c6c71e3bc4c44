package fmmmodel

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/obs"
	"sfcacd/internal/topology"
)

// This file evaluates the model on any number of topologies. The
// communication event stream of an assignment does not depend on the
// network, so the paper's 4x4 SFC-combination tables (one particle
// order against four processor orders) share a single traversal per
// particle order. The traversal aggregates the stream into a
// topology-independent communication matrix (internal/commmat);
// evaluating each topology is then a contraction — one distance lookup
// per distinct rank pair instead of one interface call per event —
// turning the sweep from O(events x topologies) into
// O(events + distinctPairs x topologies). One topology is simply
// K = 1: the single-topology callers (the sfcacd facade, loadbalance,
// dynamic) run the same aggregation and fused contraction.

// NFIMulti computes the near-field accumulator of the assignment under
// each of the given topologies from one shared communication matrix.
// The results are exactly (Sum/Count/Zeros) those of accumulating the
// ordered per-event stream on each topology; the tests pin this
// against a direct per-event oracle.
func NFIMulti(a *acd.Assignment, topos []topology.Topology, opts NFIOptions) []acd.Accumulator {
	defer obs.StartSpan("accumulation.nfi").End()
	opts.normalize()
	m := NFIMatrix(a, opts)
	total := contractAll(m, topos, opts.Workers)
	for t := range total {
		total[t].Record()
	}
	return total
}

// FFIMulti computes the far-field breakdown of the assignment under
// each of the given topologies, sharing one aggregation of the
// interaction structure built from the assignment's key-space
// occupancy index. The far-field matrices are kept separate per
// communication type, so FFIResult keeps its per-type breakdown.
func FFIMulti(a *acd.Assignment, topos []topology.Topology, opts FFIOptions) []FFIResult {
	defer obs.StartSpan("accumulation.ffi").End()
	if opts.Workers <= 0 {
		opts.Workers = defaultWorkers()
	}
	if len(topos) == 0 {
		return make([]FFIResult, 0)
	}
	ms := ffiMatrices(a.KeyIndex(), opts.Plan, topos[0].P(), opts.Workers)
	return ms.ContractAll(topos, opts.Workers)
}

// ContractAll contracts the far-field matrices against every topology
// in one fused pass per matrix, through the cached per-topology
// distance tables. Parallelism lives inside each matrix and is bounded
// by workers; results are byte-identical at any worker count. The
// anterpolation accumulator reuses the interpolation contraction
// because hop distance is symmetric.
func (ms FFIMatrices) ContractAll(topos []topology.Topology, workers int) []FFIResult {
	res := make([]FFIResult, len(topos))
	if len(topos) == 0 {
		return res
	}
	span := obs.StartSpan("commmat.contract")
	dts := make([]*topology.DistanceTable, len(topos))
	interp := make([]*acd.Accumulator, len(topos))
	il := make([]*acd.Accumulator, len(topos))
	for t, topo := range topos {
		dts[t] = distanceTableFor(topo)
		interp[t] = &res[t].Interpolation
		il[t] = &res[t].InteractionList
	}
	ms.Interpolation.ContractTableMulti(dts, interp, workers)
	ms.InteractionList.ContractTableMultiSym(dts, il, workers)
	for t := range res {
		res[t].Anterpolation = res[t].Interpolation
	}
	span.End()
	for t := range res {
		res[t].record()
	}
	return res
}
