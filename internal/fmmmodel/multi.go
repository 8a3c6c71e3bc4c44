package fmmmodel

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sfcacd/internal/acd"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/topology"
)

// This file evaluates the model on any number of topologies by pricing
// on replay. The communication event stream of an assignment does not
// depend on the network, so the paper's 4x4 SFC-combination tables
// (one particle order against four processor orders) share a single
// replay of the pair plan per particle order. Each worker streams its
// events through a pricer: a small direct-mapped (src, dst) -> count
// memo whose evicted entries collect in a flush buffer, and a full
// buffer costs one batched distance kernel call (pairSummer) per
// topology. Pairs repeat locally along the plan, so the memo folds
// most repeats before they reach a kernel, without the cache misses of
// aggregating a whole communication matrix. One topology is simply
// K = 1: the single-topology callers (the sfcacd facade, loadbalance,
// dynamic) run the same replay.
//
// Every tally is an exact integer sum, so the results are byte-
// identical to accumulating the ordered per-event stream at any worker
// count and any memo behavior; the tests pin this against a direct
// per-event oracle and against the matrix path (matrix.go).

const (
	// memoBits sizes a pricer's pair memo at 1 << memoBits entries:
	// 12 KiB of keys and counts, small enough that a worker's pricers
	// stay cache-resident.
	memoBits = 10
	// flushLen is the flush buffer length; a full buffer costs one
	// kernel call per topology.
	flushLen = 512
)

// pairSummer is implemented by the topologies (all six paper kinds)
// that price a weighted batch of arbitrary rank pairs in one dynamic
// dispatch: DistanceSumPairs returns sum_i Distance(src[i], dst[i]) *
// ns[i] exactly.
type pairSummer interface {
	DistanceSumPairs(src, dst []int32, ns []uint32) uint64
}

// Pricing-volume counters: "price.events" counts replayed events and
// "price.pairs" the pairs the memos flushed to the distance kernels.
// Their ratio is the memo's dedup factor; cmd/acdbench derives the
// "price.dedup_ratio" gauge from them for run manifests.
var (
	eventsCounter = obs.GetCounter("price.events")
	pairsCounter  = obs.GetCounter("price.pairs")
)

// NFIMulti computes the near-field accumulator of the assignment under
// each of the given topologies from one replay of its particle set's
// near-field pair plan (recorded on first use, with opts.Workers).
// Every topology must have the assignment's processor count. The results are exactly
// (Sum/Count/Zeros) those of accumulating the ordered per-event stream
// on each topology; the tests pin this against a direct per-event
// oracle.
func NFIMulti(a *acd.Assignment, topos []topology.Topology, opts NFIOptions) []acd.Accumulator {
	defer obs.StartSpan("accumulation.nfi").End()
	opts.normalize()
	total := make([]acd.Accumulator, len(topos))
	if len(topos) == 0 {
		return total
	}
	checkP(topos, a.P)
	ix := a.KeyIndex()
	chunks := ix.Set().Plan(opts.Spec(), opts.Workers).Near(opts.Radius, opts.Metric)
	reps := ix.Reps(ix.Order)

	span := obs.StartSpan("price.nfi")
	ps := newPricers(topos, min(opts.Workers, max(len(chunks), 1)))
	parallel(len(ps), len(chunks), func(w, c int) { ps[w].replaySym(reps, chunks[c]) })
	mergePricers(ps, total, 2)
	span.End()
	for t := range total {
		total[t].Record()
	}
	return total
}

// FFIMulti computes the far-field breakdown of the assignment under
// each of the given topologies from one replay of its far-field
// streams: the parent-child links from the skeleton's child groups,
// the interaction lists from its particle set's pair plan (recorded on
// first use, with opts.Workers). The three communication types are
// priced separately, so FFIResult keeps its per-type breakdown. Every
// topology must have the assignment's processor count.
func FFIMulti(a *acd.Assignment, topos []topology.Topology, opts FFIOptions) []FFIResult {
	defer obs.StartSpan("accumulation.ffi").End()
	if opts.Workers <= 0 {
		opts.Workers = defaultWorkers()
	}
	res := make([]FFIResult, len(topos))
	if len(topos) == 0 {
		return res
	}
	checkP(topos, a.P)
	ix := a.KeyIndex()
	tasks := ffiTasks(ix, opts.Workers)

	span := obs.StartSpan("price.ffi")
	workers := min(opts.Workers, max(len(tasks), 1))
	interp, il := newPricers(topos, workers), newPricers(topos, workers)
	parallel(workers, len(tasks), func(w, i int) {
		t := tasks[i]
		reps := ix.Reps(t.level)
		if t.il != nil {
			il[w].replaySym(reps, t.il)
			return
		}
		interp[w].replayLinks(ix.Reps(t.level-1), ix.ChildStart(t.level-1), reps, t.lo, t.hi)
	})
	in, ls := make([]acd.Accumulator, len(topos)), make([]acd.Accumulator, len(topos))
	// A link (parent, child) is one interpolation event; the
	// anterpolation stream reverses it, and hop distance is symmetric,
	// so it copies the interpolation tallies.
	mergePricers(interp, in, 1)
	mergePricers(il, ls, 2)
	span.End()
	for t := range res {
		res[t] = FFIResult{Interpolation: in[t], Anterpolation: in[t], InteractionList: ls[t]}
		res[t].record()
	}
	return res
}

// checkP panics unless every topology has p processors: pricing an
// assignment over another rank count would index the wrong ranks.
func checkP(topos []topology.Topology, p int) {
	for _, t := range topos {
		if t.P() != p {
			panic(fmt.Sprintf("fmmmodel: %s of %d processors cannot price an assignment over %d", t.Name(), t.P(), p))
		}
	}
}

// parallel runs tasks [0, n) on workers workers that pull task indices
// from a shared cursor; run receives the worker index with the task.
// Worker 0 is the calling goroutine, so one worker spawns nothing.
func parallel(workers, n int, run func(w, task int)) {
	var next atomic.Int64
	work := func(w int) {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			run(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// pricer tallies one event family's stream on K topologies. An event
// between equal ranks has hop distance 0 on every topology (hop
// distance is a metric), so the replay loops only count it. Any other
// event enters the memo keyed by its packed (src, dst) pair: a hit adds
// to the resident count, a miss evicts the resident entry into the
// flush buffer. The memo therefore never holds a zero key, which marks
// an empty slot.
type pricer struct {
	topos   []topology.Topology
	kernels []pairSummer // nil where a topology has no kernel
	keys    [1 << memoBits]uint64
	counts  [1 << memoBits]uint32
	src     [flushLen]int32
	dst     [flushLen]int32
	ns      [flushLen]uint32
	n       int // buffered pairs
	// events and zeros count the replayed and the zero-hop events,
	// pairs the flushed pairs; sums[t] is topology t's distance sum.
	events, zeros, pairs uint64
	sums                 []uint64
}

// newPricers returns one pricer over topos per worker.
func newPricers(topos []topology.Topology, workers int) []*pricer {
	kernels := make([]pairSummer, len(topos))
	for t, topo := range topos {
		kernels[t], _ = topo.(pairSummer)
	}
	ps := make([]*pricer, workers)
	for w := range ps {
		ps[w] = &pricer{topos: topos, kernels: kernels, sums: make([]uint64, len(topos))}
	}
	return ps
}

// pack returns the memo key of an event between the distinct ranks r
// and q: never zero, because r != q.
func pack(r, q int32) uint64 { return uint64(uint32(r))<<32 | uint64(uint32(q)) }

// probe counts one more event for key if it is resident in its memo
// slot with an unsaturated count. Otherwise it returns the slot for
// miss. The replay loops call probe and miss directly so that the hit
// path inlines.
func (p *pricer) probe(key uint64) (h uint64, hit bool) {
	h = key * 0x9e3779b97f4a7c15 >> (64 - memoBits)
	if p.keys[h] == key && p.counts[h] != ^uint32(0) {
		p.counts[h]++
		return h, true
	}
	return h, false
}

// miss evicts slot h's resident entry, if any, into the flush buffer
// and makes key resident with count 1. A saturated entry evicts itself.
func (p *pricer) miss(h, key uint64) {
	if old := p.keys[h]; old != 0 {
		p.push(old, p.counts[h])
	}
	p.keys[h], p.counts[h] = key, 1
}

// replaySym adds one event per plan pair between the two cells'
// representatives, in canonical (smaller rank first) form.
func (p *pricer) replaySym(reps []int32, pairs []keynav.Pair) {
	var zeros uint64
	for _, pr := range pairs {
		r, q := reps[pr.A], reps[pr.B]
		if r == q {
			zeros++
			continue
		}
		if q < r {
			r, q = q, r
		}
		key := pack(r, q)
		if h, hit := p.probe(key); !hit {
			p.miss(h, key)
		}
	}
	p.events += uint64(len(pairs))
	p.zeros += zeros
}

// replayLinks adds one event per link from the parents at positions
// [lo, hi) to their child groups. A parent's representative is the
// minimum over its children's, so (parent, child) is already canonical.
func (p *pricer) replayLinks(parents, start, reps []int32, lo, hi int) {
	var zeros uint64
	for j := lo; j < hi; j++ {
		pr := parents[j]
		for _, r := range reps[start[j]:start[j+1]] {
			if r == pr {
				zeros++
				continue
			}
			key := pack(pr, r)
			if h, hit := p.probe(key); !hit {
				p.miss(h, key)
			}
		}
	}
	p.events += uint64(start[hi] - start[lo])
	p.zeros += zeros
}

// push appends a memo entry to the flush buffer, flushing it when full.
func (p *pricer) push(key uint64, n uint32) {
	p.src[p.n], p.dst[p.n], p.ns[p.n] = int32(key>>32), int32(uint32(key)), n
	if p.n++; p.n == flushLen {
		p.flush()
	}
}

// flush prices the buffered pairs on every topology: one kernel call
// each, or per-pair Distance calls for a topology without a kernel.
func (p *pricer) flush() {
	src, dst, ns := p.src[:p.n], p.dst[:p.n], p.ns[:p.n]
	for t, k := range p.kernels {
		if k != nil {
			p.sums[t] += k.DistanceSumPairs(src, dst, ns)
			continue
		}
		topo := p.topos[t]
		for i, r := range src {
			p.sums[t] += uint64(topo.Distance(int(r), int(dst[i]))) * uint64(ns[i])
		}
	}
	p.pairs += uint64(p.n)
	p.n = 0
}

// drain empties the memo into the buffer and flushes it.
func (p *pricer) drain() {
	for h, key := range p.keys {
		if key != 0 {
			p.push(key, p.counts[h])
			p.keys[h] = 0
		}
	}
	p.flush()
}

// mergePricers drains the pricers and adds their tallies to out, one
// accumulator per topology, each event counted weight times (2 for a
// canonical stream that stands for both directions). The sums are
// integers, so the merge order does not matter.
func mergePricers(ps []*pricer, out []acd.Accumulator, weight uint64) {
	var events, zeros, pairs uint64
	for _, p := range ps {
		p.drain()
		events, zeros, pairs = events+p.events, zeros+p.zeros, pairs+p.pairs
		for t, s := range p.sums {
			out[t].Sum += weight * s
		}
	}
	for t := range out {
		out[t].Count += weight * events
		out[t].Zeros += weight * zeros
	}
	eventsCounter.Add(events)
	pairsCounter.Add(pairs)
	topology.CountDistanceQueries(pairs * uint64(len(out)))
}
