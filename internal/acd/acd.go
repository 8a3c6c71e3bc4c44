// Package acd implements the paper's primary contribution: the Average
// Communicated Distance metric (Definition 1) and the particle-to-
// processor assignment pipeline it is evaluated over.
//
// Given a problem instance, the ACD is the average shortest-path hop
// distance over every pairwise communication the application performs.
// The package provides the accumulator that tallies communication
// events and the Assignment that realizes §IV steps 1–4: order the
// particles with a particle-order SFC, partition them into p
// consecutive chunks, and distribute chunk i to processor i (whose
// physical location is fixed by the topology's processor-order SFC).
package acd

import (
	"fmt"

	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/partition"
	"sfcacd/internal/sfc"
)

// Observability metrics. Accumulators are built in per-worker locals
// and merged, so the hot Add path stays plain field arithmetic; the
// model entry points (internal/fmmmodel, internal/model3d) publish
// final merged accumulators via Record once per evaluation.
var (
	eventsCounter  = obs.GetCounter("acd.events")
	zeroHopCounter = obs.GetCounter("acd.zero_hops")
	assignCounter  = obs.GetCounter("acd.assignments")
	// assignTime buckets span 10µs..10s+ in 4x steps.
	assignTime = obs.GetHistogram("acd.assign_ns", obs.ExponentialBuckets(1e4, 4, 11))
)

// Accumulator tallies communication events and their hop distances.
// The zero value is ready to use.
type Accumulator struct {
	// Sum is the total hop distance over all recorded events.
	Sum uint64
	// Count is the number of recorded communication events, including
	// zero-hop (same processor) events per §IV step 6.
	Count uint64
	// Zeros is the number of zero-hop events: communications that stay
	// on the owning processor. Zeros/Count is the zero-hop fraction —
	// the share of traffic the assignment kept local.
	Zeros uint64
}

// Add records one communication of the given hop distance.
func (a *Accumulator) Add(hops int) {
	a.Sum += uint64(hops)
	a.Count++
	if hops == 0 {
		a.Zeros++
	}
}

// AddN records n communications of the same hop distance.
func (a *Accumulator) AddN(hops, n int) {
	a.Sum += uint64(hops) * uint64(n)
	a.Count += uint64(n)
	if hops == 0 {
		a.Zeros += uint64(n)
	}
}

// Merge folds another accumulator into this one.
func (a *Accumulator) Merge(b Accumulator) {
	a.Sum += b.Sum
	a.Count += b.Count
	a.Zeros += b.Zeros
}

// Record publishes the accumulator's tallies to the obs registry
// ("acd.events", "acd.zero_hops"). Call it exactly once per final
// merged accumulator — model entry points do this; callers composing
// accumulators further (e.g. FFIResult.Total) must not re-record.
func (a Accumulator) Record() {
	eventsCounter.Add(a.Count)
	zeroHopCounter.Add(a.Zeros)
}

// ACD returns the Average Communicated Distance: Sum/Count. It is 0
// for an empty accumulator.
func (a Accumulator) ACD() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Sum) / float64(a.Count)
}

// String formats the accumulator as "acd=… (events=…)".
func (a Accumulator) String() string {
	return fmt.Sprintf("acd=%.3f (events=%d)", a.ACD(), a.Count)
}

// Assignment is the result of distributing particles onto processors:
// steps 1–4 of the paper's §IV algorithm. It labels the skeleton of its
// particle set (keynav.Set) with its ranks.
type Assignment struct {
	// Order is the spatial resolution order k (grid side 2^k).
	Order uint
	// P is the number of processors.
	P int
	// n is the particle count and side the grid side.
	n    int
	side uint32
	// ix is the labelling behind RankAt, Owners and the NFI and FFI
	// replay passes; Release drops it.
	ix *keynav.Index
}

// Release drops the assignment's labelling. The assignment must not be
// used afterwards: RankAt reports every cell empty. Nothing needs to
// call it; the garbage collector reclaims an assignment whole.
func (a *Assignment) Release() {
	if a != nil {
		a.ix = nil
	}
}

// KeyIndex returns the assignment's labelling of its particle set's
// skeleton (internal/keynav): the per-level representative ranks the
// replay passes read, with the set and its plans behind Index.Set.
// Returns nil after Release.
func (a *Assignment) KeyIndex() *keynav.Index { return a.ix }

// Assign orders the set's particles along the particle-order curve,
// partitions them into p balanced consecutive chunks, and assigns
// chunk i to processor rank i. A curve with a child-order table
// (sfc.Quadrants: Hilbert, Morton, Gray) labels the set in one top-down
// pass over its skeleton (keynav.Set.LabelAlong); any other curve sorts
// the particles along itself and labels the resulting owners.
func Assign(set *keynav.Set, curve sfc.Curve, p int) (*Assignment, error) {
	if p < 1 {
		return nil, fmt.Errorf("acd: p = %d must be positive", p)
	}
	if set.N() == 0 {
		return nil, fmt.Errorf("acd: no particles")
	}
	assignCounter.Inc()
	defer obs.StartTimer(assignTime)()
	partitioning := obs.StartSpan("partitioning")
	ranks := chunkRanks(set.N(), p)
	partitioning.End()
	defer obs.StartSpan("ordering").End()
	a := &Assignment{Order: set.Order, P: p, n: set.N(), side: geom.Side(set.Order)}
	if q, ok := curve.(sfc.Quadrants); ok {
		a.ix = set.LabelAlong(q, ranks)
		return a, nil
	}
	owners := make([]int32, set.N()) // in the set's input order
	for c, i := range sfc.SortPoints(curve, set.Order, set.Points()) {
		owners[i] = ranks[c]
	}
	a.ix = set.Label(owners)
	return a, nil
}

// chunkRanks returns the balanced consecutive chunks of n particles in
// curve order over p ranks: ranks[c] owns the c-th particle.
func chunkRanks(n, p int) []int32 {
	ranks := make([]int32, n)
	for r := 0; r < p; r++ {
		lo, hi := partition.Start(r, n, p), partition.End(r, n, p)
		for c := lo; c < hi; c++ {
			ranks[c] = int32(r)
		}
	}
	return ranks
}

// FromOwners builds an Assignment from an explicit ownership of the
// set's particles: ranks[i] owns the set's i-th input point (ranks
// need not be monotone along any curve). This supports dynamic studies
// where particles move between timesteps while their owning processors
// stay fixed. The far-field model remains well defined: cell
// representatives are minimum ranks regardless of ordering.
func FromOwners(set *keynav.Set, ranks []int32, p int) (*Assignment, error) {
	if p < 1 {
		return nil, fmt.Errorf("acd: p = %d must be positive", p)
	}
	if set.N() == 0 {
		return nil, fmt.Errorf("acd: no particles")
	}
	if set.N() != len(ranks) {
		return nil, fmt.Errorf("acd: %d particles for %d ranks", set.N(), len(ranks))
	}
	assignCounter.Inc()
	defer obs.StartTimer(assignTime)()
	defer obs.StartSpan("partitioning").End()
	for _, r := range ranks {
		if r < 0 || int(r) >= p {
			return nil, fmt.Errorf("acd: rank %d out of range [0,%d)", r, p)
		}
	}
	return &Assignment{Order: set.Order, P: p, n: set.N(), side: geom.Side(set.Order), ix: set.Label(ranks)}, nil
}

// Side returns the grid side 2^Order.
func (a *Assignment) Side() uint32 { return a.side }

// N returns the particle count.
func (a *Assignment) N() int { return a.n }

// Owners returns the rank owning each of the set's input points:
// owners[i] owns KeyIndex().Set().Points()[i]. It reads the finest
// labelling through the set's slab positions, so it inverts FromOwners.
// Returns nil after Release.
func (a *Assignment) Owners() []int32 {
	if a.ix == nil {
		return nil
	}
	set, fin := a.ix.Set(), a.ix.Reps(a.Order)
	owners := make([]int32, set.N())
	for i := range owners {
		owners[i] = fin[set.Pos(i)]
	}
	return owners
}

// RankAt returns the rank owning the particle in the given cell, or -1
// if the cell is empty or outside the grid. It answers through the
// labelling (KeyIndex).
func (a *Assignment) RankAt(p geom.Point) int32 {
	if a.ix == nil {
		return -1
	}
	return a.ix.RankAt(p)
}
