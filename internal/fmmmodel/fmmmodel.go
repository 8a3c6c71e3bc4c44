// Package fmmmodel implements the paper's abstraction (§III–IV) of the
// Fast Multipole Method's communication structure and computes the
// Average Communicated Distance it induces on a given network.
//
// Two interaction families are modeled separately, as in the paper:
//
//   - Near-field interactions (NFI): every particle exchanges data with
//     every particle within spatial radius r; each exchange costs the
//     network hop distance between the owning processors.
//   - Far-field interactions (FFI): the quadtree-structured
//     interpolation (upward accumulation), anterpolation (downward
//     accumulation), and interaction-list exchanges, between per-cell
//     representative processors (the minimum rank in the cell).
//
// The model is contention-unaware: distances are shortest-path hop
// counts regardless of concurrent traffic (§IV step 6).
package fmmmodel

import (
	"runtime"
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/quadtree"
	"sfcacd/internal/topology"
)

// NFIOptions configures the near-field model.
type NFIOptions struct {
	// Radius is the neighborhood radius r (default 1: the 8
	// edge/corner-adjacent cells).
	Radius int
	// Metric selects the neighborhood shape; the paper's near-field
	// bound ("at most 8" for r=1) corresponds to Chebyshev.
	Metric geom.Metric
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
}

func (o *NFIOptions) normalize() {
	if o.Radius == 0 {
		o.Radius = 1
	}
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// NFI computes the ACD accumulator for all near-field interactions of
// the assignment on the given topology: §IV steps 5–7. Every ordered
// particle pair (x, y) with d(x, y) <= r contributes one communication
// event of the owning processors' hop distance (possibly zero).
func NFI(a *acd.Assignment, topo topology.Topology, opts NFIOptions) acd.Accumulator {
	defer obs.StartSpan("accumulation.nfi").End()
	opts.normalize()
	n := a.N()
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	results := make(chan acd.Accumulator, workers)
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		go func(lo, hi int) {
			var local acd.Accumulator
			for i := lo; i < hi; i++ {
				p := a.Particles[i]
				mine := int(a.Ranks[i])
				geom.VisitNeighborhood(p, opts.Radius, opts.Metric, a.Side(), func(q geom.Point) {
					if r := a.RankAt(q); r >= 0 {
						local.Add(topo.Distance(mine, int(r)))
					}
				})
			}
			results <- local
		}(lo, hi)
	}
	var total acd.Accumulator
	for w := 0; w < workers; w++ {
		total.Merge(<-results)
	}
	// Publish in bulk: one Distance call per recorded event.
	total.Record()
	topology.CountDistanceQueries(total.Count)
	return total
}

// FFIResult breaks the far-field ACD into the paper's three
// communication types.
type FFIResult struct {
	// Interpolation is the upward accumulation: each occupied cell's
	// representative sends to its parent cell's representative, at
	// every level.
	Interpolation acd.Accumulator
	// Anterpolation is the downward accumulation: the same links
	// traversed parent-to-child.
	Anterpolation acd.Accumulator
	// InteractionList covers the well-separated cell exchanges at every
	// level (children of the parent's neighbors not adjacent to the
	// cell).
	InteractionList acd.Accumulator
}

// Total merges the three accumulators: §IV step 10.
func (r FFIResult) Total() acd.Accumulator {
	var t acd.Accumulator
	t.Merge(r.Interpolation)
	t.Merge(r.Anterpolation)
	t.Merge(r.InteractionList)
	return t
}

// record publishes the three final accumulators and the Distance-call
// volume. Interpolation and anterpolation share one Distance call per
// parent-child link, so only the interpolation count contributes.
func (r FFIResult) record() {
	r.Interpolation.Record()
	r.Anterpolation.Record()
	r.InteractionList.Record()
	topology.CountDistanceQueries(r.Interpolation.Count + r.InteractionList.Count)
}

// recordMatrixPath publishes the three final accumulators without
// touching the distance-query counter: on the matrix path the (far
// fewer) analytic queries are accounted for by the contraction and the
// distance-table builds themselves.
func (r FFIResult) recordMatrixPath() {
	r.Interpolation.Record()
	r.Anterpolation.Record()
	r.InteractionList.Record()
}

// FFIOptions configures the far-field model.
type FFIOptions struct {
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
}

// FFI computes the far-field ACD of the assignment on the given
// topology: §IV far-field steps 5–10.
func FFI(a *acd.Assignment, topo topology.Topology, opts FFIOptions) FFIResult {
	tree := quadtree.BuildRankTree(a.Order, a.Particles, a.Ranks)
	return FFIFromTree(tree, topo, opts)
}

// FFIFromTree computes the far-field ACD from a prebuilt representative
// tree (letting callers amortize tree construction across topologies).
func FFIFromTree(tree *quadtree.RankTree, topo topology.Topology, opts FFIOptions) FFIResult {
	defer obs.StartSpan("accumulation.ffi").End()
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	var res FFIResult
	// Interpolation and anterpolation: parent-child links at every
	// level. The work is light (one pass per level), so it stays
	// serial and deterministic.
	for l := tree.Order; l >= 1; l-- {
		tree.VisitCells(l, func(x, y uint32, rep int32) {
			parentRep := tree.Rep(l-1, x/2, y/2)
			d := topo.Distance(int(rep), int(parentRep))
			res.Interpolation.Add(d)
			res.Anterpolation.Add(d)
		})
	}
	// Interaction lists, parallelized over row stripes within each
	// level.
	for l := uint(2); l <= tree.Order; l++ {
		res.InteractionList.Merge(interactionLevel(tree, topo, l, opts.Workers))
	}
	res.record()
	return res
}

// interactionLevel sums interaction-list communications at one level.
func interactionLevel(tree *quadtree.RankTree, topo topology.Topology, level uint, workers int) acd.Accumulator {
	side := geom.Side(level)
	if workers > int(side) {
		workers = int(side)
	}
	stripe := (int(side) + workers - 1) / workers
	var wg sync.WaitGroup
	results := make(chan acd.Accumulator, workers)
	for w := 0; w < workers; w++ {
		yLo := uint32(w * stripe)
		yHi := yLo + uint32(stripe)
		if yHi > side {
			yHi = side
		}
		if yLo >= yHi {
			continue
		}
		wg.Add(1)
		go func(yLo, yHi uint32) {
			defer wg.Done()
			var local acd.Accumulator
			for y := yLo; y < yHi; y++ {
				for x := uint32(0); x < side; x++ {
					rep := tree.Rep(level, x, y)
					if rep == -1 {
						continue
					}
					tree.InteractionList(level, x, y, func(_, _ uint32, other int32) {
						local.Add(topo.Distance(int(rep), int(other)))
					})
				}
			}
			results <- local
		}(yLo, yHi)
	}
	go func() {
		wg.Wait()
		close(results)
	}()
	var total acd.Accumulator
	for r := range results {
		total.Merge(r)
	}
	return total
}
