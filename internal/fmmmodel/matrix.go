package fmmmodel

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
	"sfcacd/internal/topology"
)

// This file builds topology-independent communication matrices
// (internal/commmat) from the model's event streams, by replaying a
// particle set's keynav.Plan against one labelling's representative
// ranks into the shards of a commmat.Builder. The ACD path (multi.go)
// prices the same replay without a matrix; the matrices serve the
// consumers that need the rank pairs themselves (per-rank tallies in
// internal/execmodel, link routing in internal/contention) and the
// benchmark's matrix-path breakdown (perfbench). Contracting a matrix
// against a topology reproduces the accumulator of the ordered
// per-event stream bit for bit (the differential tests pin this
// against a direct per-event oracle and against the priced path). Two
// symmetries cut the aggregation work in half:
//
//   - The near-field and interaction-list relations are symmetric, so
//     both traversals enumerate each unordered pair once (from its
//     row-major-lower member) and store it in canonical src <= dst
//     form; the Sym contractions weight every pair by both directions.
//   - The anterpolation stream is the interpolation stream reversed,
//     and hop distance is symmetric, so one interpolation matrix and
//     one contraction serve both accumulators.
//
// The far-field matrices stay separate per communication type so
// FFIResult's breakdown survives aggregation.

// NFIMatrix aggregates the assignment's near-field event stream into a
// symmetric-canonical matrix: every unordered particle pair within
// opts.Radius contributes one event between the owning ranks, keyed
// with the smaller rank as source. The pairs come from the particle
// set's plan (recorded on first use) and are replayed against the
// labelling's ranks in one parallel pass. Contract
// with the Sym variant; each pair then counts once per direction,
// exactly reproducing the ordered stream. It is timed as a
// commmat.build.nfi phase under opts.Parent, with commmat.finalize
// (and keynav.plan, when it records the plan) beneath.
func NFIMatrix(a *acd.Assignment, opts NFIOptions) *commmat.Matrix {
	build := opts.Parent.Child("commmat.build.nfi")
	defer build.End()
	opts.normalize()
	ix := a.KeyIndex()
	chunks := ix.Set().Plan(build, opts.Spec(), opts.Workers).Near(opts.Radius, opts.Metric)
	reps := ix.Reps(ix.Order)
	workers := min(opts.Workers, max(len(chunks), 1))
	b := commmat.NewBuilder(a.P, workers)
	panics.Parallel(workers, len(chunks), func(w, c int) { replaySym(b.Shard(w), reps, chunks[c]) })
	return b.Finalize(build)
}

// replaySym adds one event per pair between the two cells'
// representatives, in canonical (smaller rank first) form.
func replaySym(s *commmat.Shard, reps []int32, pairs []keynav.Pair) {
	for _, pr := range pairs {
		r, q := reps[pr.A], reps[pr.B]
		if q < r {
			r, q = q, r
		}
		s.Add(r, q)
	}
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
// over the representative quadtree (quadtree.RankTree) produces. It
// replays the particle set's interaction-list plan (recorded on first
// use) against the labelling's per-level representatives on up to
// workers workers, one builder shard each. It records no phases.
func FFIMatricesFromIndex(ix *keynav.Index, p, workers int) FFIMatrices {
	if workers <= 0 {
		workers = defaultWorkers()
	}
	tasks := ffiTasks(nil, ix, workers)
	bi, bl := commmat.NewBuilder(p, workers), commmat.NewBuilder(p, workers)
	panics.Parallel(workers, len(tasks), func(w, i int) {
		t := tasks[i]
		reps := ix.Reps(t.level)
		if t.il != nil {
			replaySym(bl.Shard(w), reps, t.il)
			return
		}
		// Parent representatives are minima over children, so
		// (parent, child) is already canonical.
		si, parents, start := bi.Shard(w), ix.Reps(t.level-1), ix.ChildStart(t.level-1)
		for j := t.lo; j < t.hi; j++ {
			for _, r := range reps[start[j]:start[j+1]] {
				si.Add(parents[j], r)
			}
		}
	})
	return FFIMatrices{Interpolation: bi.Finalize(nil), InteractionList: bl.Finalize(nil)}
}

// ffiTask is one unit of a far-field replay: the links from parent
// positions [lo, hi) of level-1 to their child groups, or one plan
// chunk of level's interaction lists.
type ffiTask struct {
	level  uint
	lo, hi int
	il     []keynav.Pair
}

// ffiTasks cuts the far-field streams of the labelling into tasks,
// with work chunked over slab positions and plan pairs so task cost
// tracks occupancy. The set's far-field plan is recorded here on first
// use, on up to workers goroutines, under parent.
func ffiTasks(parent *obs.Span, ix *keynav.Index, workers int) []ffiTask {
	pl := ix.Set().Plan(parent, keynav.Spec{Far: true}, workers)
	var tasks []ffiTask
	for l := ix.Order; l >= 1; l-- {
		m := ix.LevelLen(l - 1)
		chunk := max(m/(4*workers), 1)
		for lo := 0; lo < m; lo += chunk {
			tasks = append(tasks, ffiTask{level: l, lo: lo, hi: min(lo+chunk, m)})
		}
	}
	for l := uint(2); l <= ix.Order; l++ {
		for _, c := range pl.IL(l) {
			tasks = append(tasks, ffiTask{level: l, il: c})
		}
	}
	return tasks
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
