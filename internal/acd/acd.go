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
	// Particles holds the particle cells. Assign and FromSorted keep
	// them in particle-order SFC order (sorted along the curve);
	// FromOwners keeps the set's input order and shares the set's
	// slice, so treat it as read-only.
	Particles []geom.Point
	// Ranks[i] is the processor rank owning Particles[i]. Assign and
	// FromSorted produce the balanced consecutive chunks, so their
	// ranks are non-decreasing; FromOwners takes any ownership.
	Ranks []int32
	// side caches the grid side.
	side uint32
	// ix is the labelling behind RankAt and the NFI and FFI replay
	// passes; Release drops it.
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
// chunk i to processor rank i.
func Assign(set *keynav.Set, curve sfc.Curve, p int) (*Assignment, error) {
	if p < 1 {
		return nil, fmt.Errorf("acd: p = %d must be positive", p)
	}
	if set.N() == 0 {
		return nil, fmt.Errorf("acd: no particles")
	}
	assignCounter.Inc()
	defer obs.StartTimer(assignTime)()
	ordering := obs.StartSpan("ordering")
	pts := set.Points()
	perm := sfc.SortPoints(curve, set.Order, pts)
	ordering.End()
	defer obs.StartSpan("partitioning").End()
	n := len(pts)
	a := &Assignment{
		Order:     set.Order,
		P:         p,
		Particles: make([]geom.Point, n),
		Ranks:     make([]int32, n),
		side:      geom.Side(set.Order),
	}
	owners := make([]int32, n) // in the set's input order
	for i, src := range perm {
		r := int32(partition.ChunkOf(i, n, p))
		a.Particles[i], a.Ranks[i], owners[src] = pts[src], r, r
	}
	a.ix = set.Label(owners)
	return a, nil
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
	return &Assignment{
		Order:     set.Order,
		P:         p,
		Particles: set.Points(),
		Ranks:     append([]int32(nil), ranks...),
		side:      geom.Side(set.Order),
		ix:        set.Label(ranks),
	}, nil
}

// Side returns the grid side 2^Order.
func (a *Assignment) Side() uint32 { return a.side }

// N returns the particle count.
func (a *Assignment) N() int { return len(a.Particles) }

// RankAt returns the rank owning the particle in the given cell, or -1
// if the cell is empty or outside the grid. It answers through the
// labelling (KeyIndex).
func (a *Assignment) RankAt(p geom.Point) int32 {
	if a.ix == nil {
		return -1
	}
	return a.ix.RankAt(p)
}
