package fmmmodel

import (
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/panics"
	"sfcacd/internal/topology"
)

// This file evaluates the model on any number of topologies by pricing
// on replay. The communication event stream of an assignment does not
// depend on the network, so the paper's 4x4 SFC-combination tables
// (one particle order against four processor orders) share a single
// replay of the pair plan per particle order. Each worker writes every
// replayed event's two ranks into a flush buffer and keeps those between
// distinct ranks, and a full buffer is priced in one batched call per
// kernel: four tori of the call's list at a time in one pass over the
// buffer (topology.TorusGroup), every other topology through its own
// unit-weight kernel (topology.SumPairs). Each event is priced as itself;
// nothing folds repeated rank pairs. One topology is simply K = 1: the
// single-topology callers (the sfcacd facade, loadbalance, dynamic) run
// the same replay.
//
// Every tally is an exact integer sum, so the results are byte-
// identical to accumulating the ordered per-event stream at any worker
// count; the tests pin this against a direct per-event oracle and
// against the matrix path (matrix.go). The rank-pair consumers replay
// the same plan through the visitors of replay.go, which never reach
// these pricers.

// flushLen is the flush buffer length; a full buffer costs one kernel
// call per torus group and per other topology.
const flushLen = 512

// Pricing-volume counters: "price.events" counts the modelled events,
// replayed or not (an only child's link is counted without a replay),
// and "price.zero_hop" those between equal ranks, which no kernel
// prices. Every other event is priced once per topology, which
// "topology.distance.analytic" counts.
var (
	eventsCounter  = obs.GetCounter("price.events")
	zeroHopCounter = obs.GetCounter("price.zero_hop")
)

// NFIMulti computes the near-field accumulator of the assignment under
// each of the given topologies from one replay of its particle set's
// near-field pair plan (recorded on first use, with opts.Workers).
// Every topology must have the assignment's processor count. The results are exactly
// (Sum/Count/Zeros) those of accumulating the ordered per-event stream
// on each topology; the tests pin this against a direct per-event
// oracle. It is timed as an accumulation.nfi phase under opts.Parent,
// with price.nfi (and keynav.plan, when it records the plan) beneath.
func NFIMulti(a *acd.Assignment, topos []topology.Topology, opts NFIOptions) []acd.Accumulator {
	acc := opts.Parent.Child("accumulation.nfi")
	defer acc.End()
	opts.normalize()
	total := make([]acd.Accumulator, len(topos))
	if len(topos) == 0 {
		return total
	}
	checkP(topos, a.P)
	ix := a.KeyIndex()
	chunks := ix.Set().Plan(acc, opts.Spec(), opts.Workers).Near(opts.Radius, opts.Metric)
	reps := ix.Reps(ix.Order)

	span := acc.Child("price.nfi")
	ps := newPricers(newKernels(topos), min(opts.Workers, max(len(chunks), 1)))
	panics.Parallel(len(ps), len(chunks), func(w, c int) { ps[w].replayPairs(reps, chunks[c]) })
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
// first use, with opts.Workers). Only the links of parents with two or
// more children are replayed; an only child's link is zero-hop, so it
// is counted (Count and Zeros) without a replay. The three
// communication types are priced separately, so FFIResult keeps its
// per-type breakdown. Every
// topology must have the assignment's processor count. It is timed as
// an accumulation.ffi phase under opts.Parent, with price.ffi (and
// keynav.plan, when it records the plan) beneath.
func FFIMulti(a *acd.Assignment, topos []topology.Topology, opts FFIOptions) []FFIResult {
	acc := opts.Parent.Child("accumulation.ffi")
	defer acc.End()
	if opts.Workers <= 0 {
		opts.Workers = defaultWorkers()
	}
	res := make([]FFIResult, len(topos))
	if len(topos) == 0 {
		return res
	}
	checkP(topos, a.P)
	ix := a.KeyIndex()
	tasks, only := ffiTasks(acc, ix, opts.Workers)

	span := acc.Child("price.ffi")
	workers := min(opts.Workers, max(len(tasks), 1))
	ks := newKernels(topos)
	interp, il := newPricers(ks, workers), newPricers(ks, workers)
	panics.Parallel(workers, len(tasks), func(w, i int) {
		t := tasks[i]
		reps := ix.Reps(t.level)
		if t.il != nil {
			il[w].replayPairs(reps, t.il)
			return
		}
		interp[w].replayLinks(ix.Reps(t.level-1), ix.ChildStart(t.level-1), reps, t.forks)
	})
	interp[0].events += only
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

// ffiTask is one unit of a far-field replay: the links from some of
// level-1's forks (Index.Forks) to their child groups, or one plan
// chunk of level's interaction lists.
type ffiTask struct {
	level uint
	forks []int32
	il    []keynav.Pair
}

// ffiTasks cuts the far-field streams of the labelling into tasks,
// with work chunked over forks and plan pairs so task cost tracks
// occupancy, and returns them with the number of links it leaves out:
// those of parents with a single child, whose representative is the
// parent's, so the link is zero-hop. The set's far-field plan is
// recorded here on first use, on up to workers goroutines, under
// parent.
func ffiTasks(parent *obs.Span, ix *keynav.Index, workers int) ([]ffiTask, uint64) {
	pl := ix.Set().Plan(parent, keynav.Spec{Far: true}, workers)
	var tasks []ffiTask
	var only uint64
	for l := ix.Order; l >= 1; l-- {
		forks := ix.Forks(l - 1)
		only += uint64(ix.LevelLen(l-1) - len(forks))
		chunk := max(len(forks)/(4*workers), 1)
		for lo := 0; lo < len(forks); lo += chunk {
			tasks = append(tasks, ffiTask{level: l, forks: forks[lo:min(lo+chunk, len(forks))]})
		}
	}
	for l := uint(2); l <= ix.Order; l++ {
		for _, c := range pl.IL(l) {
			tasks = append(tasks, ffiTask{level: l, il: c})
		}
	}
	return tasks, only
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

// kernels is how one call prices a flush batch on its topologies: the
// tori four at a time, each group in one pass, and every other
// topology (with the leftover tori) on its own, through
// topology.SumPairs. Every topology of a call has the assignment's P,
// so all its tori share a side. The groups' packed words are built per
// call from the tori's own codes and dropped with it.
type kernels struct {
	k      int // topologies in the call's list
	groups []torusGroup
	single []single
}

// torusGroup is one group of four tori; at[l] is lane l's index in the
// call's topology list.
type torusGroup struct {
	group *topology.TorusGroup
	at    [4]int
}

// single is one topology priced on its own; at is its index in the
// call's topology list.
type single struct {
	at   int
	topo topology.Topology
}

// newKernels applies the grouping to a call's topology list, in list
// order.
func newKernels(topos []topology.Topology) *kernels {
	k := &kernels{k: len(topos)}
	var tori []*topology.Torus
	var at []int
	for i, topo := range topos {
		if t, ok := topo.(*topology.Torus); ok {
			tori, at = append(tori, t), append(at, i)
			if len(tori) == 4 {
				k.groups = append(k.groups, torusGroup{topology.NewTorusGroup(tori...), [4]int(at)})
				tori, at = tori[:0], at[:0]
			}
			continue
		}
		k.single = append(k.single, single{at: i, topo: topo})
	}
	for j, t := range tori {
		k.single = append(k.single, single{at: at[j], topo: t})
	}
	return k
}

// price adds each topology's distance sum over the batch to sums,
// which is indexed like the call's topology list.
func (k *kernels) price(src, dst []int32, sums []uint64) {
	for _, g := range k.groups {
		s := g.group.DistanceSumPairs(src, dst)
		for l, t := range g.at {
			sums[t] += s[l]
		}
	}
	for _, one := range k.single {
		sums[one.at] += topology.SumPairs(one.topo, src, dst)
	}
}

// pricer tallies one event family's stream on a call's topologies. The
// replay loops write every event's two ranks into the flush buffer but
// advance past them only if they differ: an event between equal ranks
// has hop distance 0 on every topology (hop distance is a metric), so
// it counts towards Count and Zeros and is never priced. A full buffer
// is priced by the call's kernels.
type pricer struct {
	kernels *kernels
	src     [flushLen]int32
	dst     [flushLen]int32
	n       int // buffered events
	// events counts the events and priced those with distinct ranks;
	// sums[t] is topology t's distance sum.
	events, priced uint64
	sums           []uint64
}

// newPricers returns one pricer per worker over the call's kernels.
func newPricers(k *kernels, workers int) []*pricer {
	ps := make([]*pricer, workers)
	for w := range ps {
		ps[w] = &pricer{kernels: k, sums: make([]uint64, k.k)}
	}
	return ps
}

// replayPairs adds one event per plan pair between the two cells'
// representatives. Hop distance is symmetric, so the pair needs no
// canonical order.
func (p *pricer) replayPairs(reps []int32, pairs []keynav.Pair) {
	// n < flushLen throughout; masking it lets the compiler drop the
	// buffer's bounds checks.
	n := p.n
	for _, pr := range pairs {
		r, q := reps[pr.A], reps[pr.B]
		p.src[n&(flushLen-1)], p.dst[n&(flushLen-1)] = r, q
		if n += distinct(r, q); n == flushLen {
			p.n = n
			p.flush()
			n = 0
		}
	}
	p.n = n
	p.events += uint64(len(pairs))
}

// replayLinks adds one event per link from the parents at positions
// forks to their child groups.
func (p *pricer) replayLinks(parents, start, reps, forks []int32) {
	n, events := p.n, 0
	for _, j := range forks {
		pr, children := parents[j], reps[start[j]:start[j+1]]
		for _, r := range children {
			p.src[n&(flushLen-1)], p.dst[n&(flushLen-1)] = pr, r
			if n += distinct(pr, r); n == flushLen {
				p.n = n
				p.flush()
				n = 0
			}
		}
		events += len(children)
	}
	p.n = n
	p.events += uint64(events)
}

// distinct is 1 if r != q and 0 otherwise, without a branch, which a
// replay loop would mispredict on zero-hop events.
func distinct(r, q int32) int {
	x := uint32(r ^ q)
	return int((x | -x) >> 31)
}

// flush prices the buffered events and empties the buffer.
func (p *pricer) flush() {
	p.kernels.price(p.src[:p.n], p.dst[:p.n], p.sums)
	p.priced += uint64(p.n)
	p.n = 0
}

// mergePricers flushes the pricers and adds their tallies to out, one
// accumulator per topology, each event counted weight times (2 for a
// stream of unordered pairs, each standing for both directions). The
// sums are integers, so the merge order does not matter. Leftover
// events are priced in a guarded pool, so a topology's panic always
// reaches the caller as a *panics.Worker.
func mergePricers(ps []*pricer, out []acd.Accumulator, weight uint64) {
	panics.Parallel(1, len(ps), func(_, i int) { ps[i].flush() })
	var events, priced uint64
	for _, p := range ps {
		events, priced = events+p.events, priced+p.priced
		for t, s := range p.sums {
			out[t].Sum += weight * s
		}
	}
	for t := range out {
		out[t].Count += weight * events
		out[t].Zeros += weight * (events - priced)
	}
	eventsCounter.Add(events)
	zeroHopCounter.Add(events - priced)
	topology.CountDistanceQueries(priced * uint64(len(out)))
}
