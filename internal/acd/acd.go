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
	"sync"

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

// ZeroHopFraction returns Zeros/Count, the share of communications
// that stayed on their processor. It is 0 for an empty accumulator.
func (a Accumulator) ZeroHopFraction() float64 {
	if a.Count == 0 {
		return 0
	}
	return float64(a.Zeros) / float64(a.Count)
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
// steps 1–4 of the paper's §IV algorithm.
type Assignment struct {
	// Order is the spatial resolution order k (grid side 2^k).
	Order uint
	// P is the number of processors.
	P int
	// Particles holds the particle cells. Assign and FromSorted keep
	// them in particle-order SFC order (sorted along the curve);
	// FromOwners keeps the caller's order.
	Particles []geom.Point
	// Ranks[i] is the processor rank owning Particles[i]. Assign and
	// FromSorted produce the balanced consecutive chunks, so their
	// ranks are non-decreasing; FromOwners takes any ownership.
	Ranks []int32
	// side caches the grid side.
	side uint32
	// keyIx caches the key-space occupancy index behind RankAt and the
	// NFI and FFI replay passes; it is built on the first KeyIndex
	// call. released marks the assignment dead: the index is no longer
	// built and RankAt reports every cell empty. ixMu guards both.
	ixMu     sync.Mutex
	keyIx    *keynav.Index
	released bool
}

// Release returns the assignment's pooled key-space index for reuse.
// The assignment must not be used afterwards: RankAt reports every
// cell empty. Only call it from owners that know the assignment is
// dead — the sweep scheduler's cells do; ordinary callers can rely on
// the garbage collector instead.
func (a *Assignment) Release() {
	if a == nil {
		return
	}
	a.ixMu.Lock()
	a.released = true
	a.keyIx.Release()
	a.keyIx = nil
	a.ixMu.Unlock()
}

// KeyIndex returns the assignment's key-space occupancy index
// (internal/keynav), building it on first call. The index is shared:
// RankAt and the near- and far-field replay passes over one assignment
// use the same build. Returns nil after Release. Hot loops should hold
// the returned index rather than call RankAt, which takes the lock on
// every probe.
func (a *Assignment) KeyIndex() *keynav.Index {
	a.ixMu.Lock()
	defer a.ixMu.Unlock()
	if a.keyIx == nil && !a.released {
		a.keyIx = keynav.Build(a.Order, a.Particles, a.Ranks)
	}
	return a.keyIx
}

// Assign orders the given particles along the particle-order curve,
// partitions them into p balanced consecutive chunks, and assigns
// chunk i to processor rank i. Duplicate cells are not allowed (the
// paper assumes at most one particle per finest-resolution cell).
func Assign(particles []geom.Point, curve sfc.Curve, order uint, p int) (*Assignment, error) {
	if p < 1 {
		return nil, fmt.Errorf("acd: p = %d must be positive", p)
	}
	if len(particles) == 0 {
		return nil, fmt.Errorf("acd: no particles")
	}
	assignCounter.Inc()
	defer obs.StartTimer(assignTime)()
	ordering := obs.StartSpan("ordering")
	perm, keys := sfc.SortPointsKeys(curve, order, particles)
	ordering.End()
	partitioning := obs.StartSpan("partitioning")
	defer partitioning.End()
	a := &Assignment{
		Order:     order,
		P:         p,
		Particles: make([]geom.Point, len(particles)),
		Ranks:     make([]int32, len(particles)),
		side:      geom.Side(order),
	}
	n := len(particles)
	// Duplicate detection rides on the sorted keys: equal cells have
	// equal curve keys and sort next to each other.
	prevIdx := uint64(0)
	for i, src := range perm {
		pt := particles[src]
		idx := keys[src] // curve.Index(order, pt), computed by the sort
		if i > 0 && idx == prevIdx {
			return nil, fmt.Errorf("acd: duplicate particle cell %v", pt)
		}
		prevIdx = idx
		a.Particles[i] = pt
		a.Ranks[i] = int32(partition.ChunkOf(i, n, p))
	}
	return a, nil
}

// FromOwners builds an Assignment from an explicit particle-to-rank
// ownership (particles need not be curve-sorted and ranks need not be
// monotone). This supports dynamic studies where particles move
// between timesteps while their owning processors stay fixed. The
// far-field model remains well defined: cell representatives are
// minimum ranks regardless of ordering.
func FromOwners(particles []geom.Point, ranks []int32, order uint, p int) (*Assignment, error) {
	if p < 1 {
		return nil, fmt.Errorf("acd: p = %d must be positive", p)
	}
	if len(particles) == 0 {
		return nil, fmt.Errorf("acd: no particles")
	}
	if len(particles) != len(ranks) {
		return nil, fmt.Errorf("acd: %d particles for %d ranks", len(particles), len(ranks))
	}
	assignCounter.Inc()
	defer obs.StartTimer(assignTime)()
	defer obs.StartSpan("partitioning").End()
	side := geom.Side(order)
	for i, pt := range particles {
		if ranks[i] < 0 || int(ranks[i]) >= p {
			return nil, fmt.Errorf("acd: rank %d out of range [0,%d)", ranks[i], p)
		}
		if pt.X >= side || pt.Y >= side {
			return nil, fmt.Errorf("acd: particle cell %v outside the %dx%d grid", pt, side, side)
		}
	}
	// Duplicate cells have equal Morton keys, so they sort next to each
	// other; one scan over the sorted keys finds them, as in Assign.
	perm, keys := sfc.SortPointsKeys(sfc.Morton, order, particles)
	for i := 1; i < len(perm); i++ {
		if keys[perm[i]] == keys[perm[i-1]] {
			return nil, fmt.Errorf("acd: duplicate particle cell %v", particles[perm[i]])
		}
	}
	return &Assignment{
		Order:     order,
		P:         p,
		Particles: append([]geom.Point(nil), particles...),
		Ranks:     append([]int32(nil), ranks...),
		side:      side,
	}, nil
}

// Side returns the grid side 2^Order.
func (a *Assignment) Side() uint32 { return a.side }

// N returns the particle count.
func (a *Assignment) N() int { return len(a.Particles) }

// RankAt returns the rank owning the particle in the given cell, or -1
// if the cell is empty or outside the grid. It answers through the
// key-space index (KeyIndex), building it on the first call.
func (a *Assignment) RankAt(p geom.Point) int32 {
	ix := a.KeyIndex()
	if ix == nil {
		return -1
	}
	return ix.RankAt(p)
}

// ChunkBounds returns the half-open range of ordered particle indices
// owned by rank r.
func (a *Assignment) ChunkBounds(r int) (lo, hi int) {
	return partition.Start(r, a.N(), a.P), partition.End(r, a.N(), a.P)
}
