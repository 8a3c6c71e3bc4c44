package fmmmodel

import (
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/topology"
)

// This file builds topology-independent communication matrices
// (internal/commmat) from the model's event streams. Contracting a
// matrix against a topology reproduces the accumulator of the ordered
// per-event stream bit for bit (the differential tests pin this
// against a direct per-event oracle). Two symmetries cut the
// aggregation work in half:
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

// tightBand is the scratch-band hint for the near-field and
// interpolation builders: chunk-monotone assignment keeps spatially
// adjacent particles (and a cell and its parent's representative) a few
// chunks apart along the curve, so almost every canonical pair has a
// rank delta well under 256. The hint only sizes the aggregation grid;
// curve discontinuities that jump further (Morton or Gray boundaries)
// land in the exact overflow path. Interaction-list partners sit whole
// cells apart and need the wider ilBand.
const tightBand = 256

// ilBand is the scratch-band hint for the interaction-list builder. IL
// partners sit whole cells apart, so the near-field band is too tight,
// but the delta profile is still heavily concentrated: at table12
// scale (order 8, p = 4096) 95-99% of IL events across the four curves
// land under delta 512. Banding there shrinks the aggregation grid
// from 32 MiB (the p = 4096 default) to 8 MiB, keeping the
// count-increment hot path close to cache-resident; the coarse-level
// pairs whose representative deltas exceed the band stay exact through
// the overflow log.
const ilBand = 512

// NFIMatrix aggregates the assignment's near-field event stream in one
// parallel traversal into a symmetric-canonical matrix: every unordered
// particle pair within opts.Radius contributes one event between the
// owning ranks, keyed with the smaller rank as source. Neighbor cells
// are reached by dilated-integer arithmetic on the particle's Morton
// key and ranks resolved by key search on the assignment's shared
// occupancy index. Contract with the Sym variant; each pair then
// counts once per direction, exactly reproducing the ordered stream.
func NFIMatrix(a *acd.Assignment, opts NFIOptions) *commmat.Matrix {
	defer obs.StartSpan("commmat.build.nfi").End()
	opts.normalize()
	ix := a.KeyIndex()
	n := ix.N()
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	b := commmat.NewBuilderBanded(a.P, workers, tightBand)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s := b.Shard(w)
			ix.VisitUpperNeighborPairs(lo, hi, opts.Radius, opts.Metric, func(mine, r int32) {
				if r < mine {
					s.Add(r, mine)
				} else {
					s.Add(mine, r)
				}
			})
		}(w, lo, hi)
	}
	wg.Wait()
	return b.Finalize()
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
// assignment over p ranks from its key-space index's per-level
// occupied-cell slabs: the same streams a walk over the
// representative quadtree (quadtree.RankTree) produces. Both the parent-child pass and the
// interaction-list pass run on a fixed worker pool, one builder shard
// per worker. Work is chunked over slab positions, so task cost tracks
// occupancy — there are no empty-cell scans — and the interaction
// lists are enumerated from adjacent parent pairs rather than per-cell
// candidate windows.
func FFIMatricesFromIndex(ix *keynav.Index, p, workers int) FFIMatrices {
	defer obs.StartSpan("commmat.build.ffi").End()
	if workers <= 0 {
		workers = defaultWorkers()
	}
	bi := commmat.NewBuilderBanded(p, workers, tightBand)
	bl := commmat.NewBuilderBanded(p, workers, ilBand)
	type task struct {
		level       uint
		lo, hi      int
		interaction bool
	}
	var tasks []task
	chunkTasks := func(level uint, m int, interaction bool) {
		chunk := m / (4 * workers)
		if chunk == 0 {
			chunk = 1
		}
		for lo := 0; lo < m; lo += chunk {
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			tasks = append(tasks, task{level: level, lo: lo, hi: hi, interaction: interaction})
		}
	}
	for l := ix.Order; l >= 1; l-- {
		chunkTasks(l, ix.LevelLen(l), false)
	}
	// Interaction-list work is keyed by the parent level: pairs are
	// enumerated from their row-major-lower parent.
	for l := uint(2); l <= ix.Order; l++ {
		chunkTasks(l, ix.LevelLen(l-1), true)
	}
	ch := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			si, sl := bi.Shard(w), bl.Shard(w)
			for t := range ch {
				if t.interaction {
					ix.VisitUpperILPairs(t.level, t.lo, t.hi, func(rep, other int32) {
						if other < rep {
							sl.Add(other, rep)
						} else {
							sl.Add(rep, other)
						}
					})
				} else {
					// Parent representatives are minima over children, so
					// (parent, child) is already canonical.
					ix.VisitParentLinks(t.level, t.lo, t.hi, func(parent, rep int32) {
						si.Add(parent, rep)
					})
				}
			}
		}(w)
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return FFIMatrices{Interpolation: bi.Finalize(), InteractionList: bl.Finalize()}
}

// Distance tables are cached across calls, keyed by topology instance:
// experiment sweeps contract many assignments against the same topology
// objects, so a table materialized once serves the whole sweep. The
// cache is a small FIFO — worst case dtCacheMax tables of
// eagerCells-bounded size.
const dtCacheMax = 8

var (
	dtMu    sync.Mutex
	dtCache map[topology.Topology]*topology.DistanceTable
	dtFIFO  []topology.Topology
)

// distanceTableFor returns the cached distance table of a topology,
// creating (and caching) one on first use.
func distanceTableFor(t topology.Topology) *topology.DistanceTable {
	dtMu.Lock()
	defer dtMu.Unlock()
	if dt, ok := dtCache[t]; ok {
		return dt
	}
	if dtCache == nil {
		dtCache = make(map[topology.Topology]*topology.DistanceTable)
	}
	for len(dtFIFO) >= dtCacheMax {
		delete(dtCache, dtFIFO[0])
		dtFIFO = dtFIFO[1:]
	}
	dt := topology.NewDistanceTable(t)
	dtCache[t] = dt
	dtFIFO = append(dtFIFO, t)
	return dt
}

// contractAll contracts one symmetric-canonical matrix against every
// topology in a single fused pass through cached per-topology distance
// tables: each distinct pair is read once and evaluated against all K
// tables, with parallelism inside the matrix (bounded by workers)
// instead of one goroutine per topology. The result is byte-identical
// at any worker count.
func contractAll(m *commmat.Matrix, topos []topology.Topology, workers int) []acd.Accumulator {
	defer obs.StartSpan("commmat.contract").End()
	out := make([]acd.Accumulator, len(topos))
	dts := make([]*topology.DistanceTable, len(topos))
	accs := make([]*acd.Accumulator, len(topos))
	for t, topo := range topos {
		dts[t] = distanceTableFor(topo)
		accs[t] = &out[t]
	}
	m.ContractTableMultiSym(dts, accs, workers)
	return out
}
