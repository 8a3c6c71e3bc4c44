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
	"sync/atomic"

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
	// Particles holds the particle cells in particle-order SFC order
	// (i.e. already sorted along the curve).
	Particles []geom.Point
	// Ranks[i] is the processor rank owning Particles[i]. Ranks are
	// monotonically non-decreasing.
	Ranks []int32
	// side caches the grid side.
	side uint32
	// The cell->rank table maps an occupied cell to the rank owning its
	// particle: dense array when the grid is small enough, sparse map
	// otherwise. It is built lazily on the first RankAt — the matrix
	// path resolves ranks on the sorted key array (keynav) and never
	// pays for it. tableReady publishes the build; tableMu serializes
	// it.
	tableMu    sync.Mutex
	tableReady atomic.Bool
	denseRank  []int32
	sparseRank map[uint64]int32
	// keyIx caches the key-space occupancy index shared by the NFI and
	// FFI matrix passes; built on first KeyIndex call.
	ixMu  sync.Mutex
	keyIx *keynav.Index
	// released marks the assignment dead: lazy structures are no longer
	// built and RankAt reports every cell empty.
	released atomic.Bool
}

// denseLimit is the largest cell count for which the cell->rank lookup
// uses a dense array (4096x4096 = 64 MiB of int32). The cutover is a
// memory bound, not a speed one: BenchmarkRankAt has the dense load at
// ~3.7 ns/op against ~21 ns/op for the sparse map on random probes, so
// the array wins wherever it fits. The table serves RankAt callers
// (the direct per-event fmmmodel.NFI and VisitNFIPairs, loadbalance)
// and FromOwners' duplicate check; the matrix path resolves ranks
// through the key-space index and never builds it. It is a var so
// tests can force the sparse path at small orders.
var denseLimit = uint64(1) << 24

// denseRankPool recycles dense rank tables between assignments.
// Parallel sweep cells each build a full 4^order table; without
// pooling, the allocator (and the -1 refill) dominates small-trial
// sweeps. Tables are returned by Assignment.Release.
var denseRankPool = sync.Pool{New: func() any { return new([]int32) }}

// newDenseRank returns a cells-long table filled with -1, reusing a
// pooled allocation when one fits.
func newDenseRank(cells uint64) []int32 {
	p := denseRankPool.Get().(*[]int32)
	t := *p
	*p = nil
	denseRankPool.Put(p)
	if uint64(cap(t)) < cells {
		t = make([]int32, cells)
	}
	t = t[:cells]
	// Doubling copy fills with -1 in O(n) copies of geometric size.
	t[0] = -1
	for i := 1; i < len(t); i *= 2 {
		copy(t[i:], t[:i])
	}
	return t
}

// Release returns the assignment's pooled scratch (the dense rank
// table and the key-space index) for reuse. The assignment must not be
// used afterwards: RankAt reports every cell empty. Only call it from
// owners that know the assignment is dead — the sweep scheduler's
// cells do; ordinary callers can rely on the garbage collector
// instead.
func (a *Assignment) Release() {
	if a == nil {
		return
	}
	a.released.Store(true)
	a.tableMu.Lock()
	if t := a.denseRank; t != nil {
		a.denseRank = nil
		p := denseRankPool.Get().(*[]int32)
		*p = t
		denseRankPool.Put(p)
	}
	a.sparseRank = nil
	a.tableReady.Store(true)
	a.tableMu.Unlock()
	a.ixMu.Lock()
	if a.keyIx != nil {
		a.keyIx.Release()
		a.keyIx = nil
	}
	a.ixMu.Unlock()
}

// ensureTable builds the cell->rank table from the particle arrays on
// first use.
func (a *Assignment) ensureTable() {
	a.tableMu.Lock()
	defer a.tableMu.Unlock()
	if a.tableReady.Load() {
		return
	}
	if a.released.Load() {
		a.tableReady.Store(true)
		return
	}
	if geom.Cells(a.Order) <= denseLimit {
		a.denseRank = newDenseRank(geom.Cells(a.Order))
		for i, pt := range a.Particles {
			a.denseRank[geom.CellID(pt, a.side)] = a.Ranks[i]
		}
	} else {
		a.sparseRank = make(map[uint64]int32, len(a.Particles))
		for i, pt := range a.Particles {
			a.sparseRank[geom.CellID(pt, a.side)] = a.Ranks[i]
		}
	}
	a.tableReady.Store(true)
}

// KeyIndex returns the assignment's key-space occupancy index
// (internal/keynav), building it on first call. The index is shared:
// the near- and far-field matrix passes over one assignment use the
// same build. Returns nil after Release.
func (a *Assignment) KeyIndex() *keynav.Index {
	a.ixMu.Lock()
	defer a.ixMu.Unlock()
	if a.keyIx == nil && !a.released.Load() {
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
	// The cell->rank table is NOT built here: duplicate detection rides
	// on the sorted keys, and the matrix path never consults the table,
	// so it is deferred to the first RankAt (see ensureTable).
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
	a := &Assignment{
		Order:     order,
		P:         p,
		Particles: append([]geom.Point(nil), particles...),
		Ranks:     append([]int32(nil), ranks...),
		side:      geom.Side(order),
	}
	// Unlike Assign, the table is built eagerly: duplicate detection
	// here has no sorted key stream to lean on, so it probes the table
	// as it fills.
	if geom.Cells(order) <= denseLimit {
		a.denseRank = newDenseRank(geom.Cells(order))
	} else {
		a.sparseRank = make(map[uint64]int32, len(particles))
	}
	a.tableReady.Store(true)
	for i, pt := range particles {
		if ranks[i] < 0 || int(ranks[i]) >= p {
			return nil, fmt.Errorf("acd: rank %d out of range [0,%d)", ranks[i], p)
		}
		id := geom.CellID(pt, a.side)
		if a.RankAt(pt) != -1 {
			return nil, fmt.Errorf("acd: duplicate particle cell %v", pt)
		}
		if a.denseRank != nil {
			a.denseRank[id] = ranks[i]
		} else {
			a.sparseRank[id] = ranks[i]
		}
	}
	return a, nil
}

// Side returns the grid side 2^Order.
func (a *Assignment) Side() uint32 { return a.side }

// N returns the particle count.
func (a *Assignment) N() int { return len(a.Particles) }

// RankAt returns the rank owning the particle in the given cell, or -1
// if the cell is empty. The first call builds the lookup table.
func (a *Assignment) RankAt(p geom.Point) int32 {
	if !a.tableReady.Load() {
		a.ensureTable()
	}
	id := geom.CellID(p, a.side)
	if a.denseRank != nil {
		return a.denseRank[id]
	}
	if r, ok := a.sparseRank[id]; ok {
		return r
	}
	return -1
}

// TableBuilt reports whether the cell->rank table has been
// materialized. Diagnostic: the matrix path (NFIMulti, FFIMulti) is
// expected to leave it unbuilt.
func (a *Assignment) TableBuilt() bool { return a.tableReady.Load() }

// ChunkBounds returns the half-open range of ordered particle indices
// owned by rank r.
func (a *Assignment) ChunkBounds(r int) (lo, hi int) {
	return partition.Start(r, a.N(), a.P), partition.End(r, a.N(), a.P)
}
