// Package incr maintains the §IV pipeline's derived state — curve
// order, balanced-chunk assignment, and the near-field ACD of every
// network it has been asked to price — across the timesteps of a
// drifting particle set, instead of rebuilding them from scratch each
// tick.
//
// Between ticks only a small minority of particles move, so each
// derived structure admits a delta update:
//
//   - The sorted permutation is repaired by sfc.ResortPermByKeys,
//     which extracts the still-sorted backbone and merges the
//     displaced minority back, instead of re-running the full radix
//     sort.
//   - Ownership is repaired by acd.DeltaOwners, which recomputes
//     owners only where the recorded rank disagrees with the
//     balanced-chunk partition over the repaired order. The fraction
//     of disagreements is the tick's drift gauge.
//   - Each priced network's acd.Accumulator is repaired by retracting
//     the near-field pairs incident to affected particles in the
//     pre-tick state and re-adding them in the post-tick state, each
//     pair's two events priced at the network's hop distance between
//     the members' owners.
//
// When the drift gauge crosses the repartition policy's high-water
// mark the delta mechanism stops paying for itself and the state falls
// back to a full rebuild (every accumulator re-priced from the state's
// own occupancy), with hysteresis so an oscillating gauge does not
// flap between mechanisms.
// Either way each maintained accumulator is defined to equal exactly
// what fmmmodel.NFIMulti returns for a fresh assignment of the current
// configuration, and Matrix, built on demand from the same occupancy,
// is bit-identical to fmmmodel.NFIMatrix — the differential oracles
// the tests and CI enforce every tick.
package incr

import (
	"fmt"
	"slices"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/partition"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

var (
	tickCounter        = obs.GetCounter("incr.ticks")
	repartitionCounter = obs.GetCounter("incr.repartitions")
	movedCounter       = obs.GetCounter("incr.moved")
	ownerMoveCounter   = obs.GetCounter("incr.owner_moves")
	retractCounter     = obs.GetCounter("incr.retracted")
	readdCounter       = obs.GetCounter("incr.readded")
)

// denseOccLimit bounds the flat cell->particle occupancy array at 4^12
// cells (64 MiB of int32); finer grids keep a map.
const denseOccLimit = uint64(1) << 24

// A canonical near-field pair stands for two events, one each way.
// Retracting a pair adds -2 events modulo 2^64, so the unsigned sums
// come back exactly when the pair is re-added.
const (
	addPair     = uint64(2)
	retractPair = ^uint64(1)
)

// Config fixes one maintained pipeline's parameters for its lifetime.
type Config struct {
	Curve  sfc.Curve
	Order  uint
	P      int
	Radius int
	Metric geom.Metric
	// Policy governs the fallback to full rebuilds. The zero value is
	// replaced by acd.DefaultRepartitionPolicy.
	Policy acd.RepartitionPolicy
	// ForceRebuild pins the maintenance mechanism to full rebuilds
	// regardless of the policy's decision. The policy still runs (and
	// TickStats still reports its decisions), so a forced-rebuild state
	// reports tick-for-tick identical stats to a delta state fed the
	// same drift — which is what lets an experiment output serve as a
	// cross-mechanism differential oracle.
	ForceRebuild bool
}

// TickStats reports what one tick did. Every field is a deterministic
// function of the particle trajectory alone — none depends on which
// mechanism (delta or rebuild) maintained the state.
type TickStats struct {
	// Moved counts particles whose cell changed this tick.
	Moved int
	// Displaced is the number of permutation entries the adaptive
	// re-sort had to extract and merge (n on its full-sort fallback).
	Displaced int
	// OwnerMoves counts particles whose owning rank changed.
	OwnerMoves int
	// Gauge is OwnerMoves / n, the drift fed to the policy.
	Gauge float64
	// Repartitioned is the policy's decision for this tick.
	Repartitioned bool
	// Retracted and Readded count the rank-pair events incident to
	// affected particles before and after the move was applied.
	Retracted int
	Readded   int
}

// State is one maintained pipeline: the derived state of a particle
// set under one curve, carried across ticks. Not safe for concurrent
// use.
type State struct {
	cfg  Config
	side uint32
	n    int

	// Identity-indexed views of the current configuration. A particle's
	// identity is its index in the initial (and every Tick's) slice.
	pts    []geom.Point
	keys   []uint64
	owners []int32
	// perm holds identities in curve order.
	perm []int

	// cell -> occupant identity (-1 / absent when empty).
	denseOcc  []int32
	sparseOcc map[uint64]int32

	// tracked holds one accumulator per distance table ACDMulti has
	// priced, kept exact across ticks.
	tracked []tracked

	// epoch/mark implement the affected set without clearing: identity
	// id is affected this tick iff mark[id] == epoch. The retract and
	// re-add enumerations visit each affected-affected pair once, from
	// the lower identity.
	epoch uint64
	mark  []uint64

	deltaBuf     []acd.OwnerDelta
	movedBuf     []int
	affectedBuf  []int
	sortedBuf    []geom.Point
	repartitions int
}

// tracked is one priced network: the caller's distance table, which
// identifies it, the topology its distances come from, and its
// maintained accumulator.
type tracked struct {
	dt   *topology.DistanceTable
	topo topology.Topology
	acc  acd.Accumulator
}

// NewState builds the initial pipeline state from scratch: full curve
// sort, balanced-chunk ownership and occupancy. No network is priced
// until ACDMulti asks for one. Duplicate particle cells are rejected,
// as in acd.Assign.
func NewState(cfg Config, pts []geom.Point) (*State, error) {
	if cfg.Curve == nil {
		return nil, fmt.Errorf("incr: nil curve")
	}
	if cfg.P < 1 {
		return nil, fmt.Errorf("incr: p = %d must be positive", cfg.P)
	}
	if len(pts) == 0 {
		return nil, fmt.Errorf("incr: no particles")
	}
	if cfg.Policy == (acd.RepartitionPolicy{}) {
		cfg.Policy = acd.DefaultRepartitionPolicy()
	}
	n := len(pts)
	s := &State{
		cfg:  cfg,
		side: geom.Side(cfg.Order),
		n:    n,
		pts:  append([]geom.Point(nil), pts...),
		mark: make([]uint64, n),
	}
	s.perm, s.keys = sfc.SortPointsKeys(cfg.Curve, cfg.Order, s.pts)
	for i := 1; i < n; i++ {
		if s.keys[s.perm[i]] == s.keys[s.perm[i-1]] {
			return nil, fmt.Errorf("incr: duplicate particle cell %v", s.pts[s.perm[i]])
		}
	}
	s.owners = make([]int32, n)
	for r := 0; r < cfg.P; r++ {
		lo, hi := partition.Start(r, n, cfg.P), partition.End(r, n, cfg.P)
		for i := lo; i < hi; i++ {
			s.owners[s.perm[i]] = int32(r)
		}
	}
	if geom.Cells(cfg.Order) <= denseOccLimit {
		s.denseOcc = make([]int32, geom.Cells(cfg.Order))
		for i := range s.denseOcc {
			s.denseOcc[i] = -1
		}
	} else {
		s.sparseOcc = make(map[uint64]int32, n)
	}
	for id, pt := range s.pts {
		s.occSet(pt, int32(id))
	}
	return s, nil
}

func (s *State) occAt(q geom.Point) int32 {
	if s.denseOcc != nil {
		return s.denseOcc[geom.CellID(q, s.side)]
	}
	if id, ok := s.sparseOcc[geom.CellID(q, s.side)]; ok {
		return id
	}
	return -1
}

func (s *State) occSet(q geom.Point, id int32) {
	if s.denseOcc != nil {
		s.denseOcc[geom.CellID(q, s.side)] = id
	} else {
		s.sparseOcc[geom.CellID(q, s.side)] = id
	}
}

func (s *State) occClear(q geom.Point) {
	if s.denseOcc != nil {
		s.denseOcc[geom.CellID(q, s.side)] = -1
	} else {
		delete(s.sparseOcc, geom.CellID(q, s.side))
	}
}

// forPairs calls fn with the members' owners for every near-field pair
// of the current configuration: every particle's upper neighborhood
// (geom.VisitUpperNeighborhood, the enumeration a keynav plan records)
// probed through occAt, the lookup the delta path uses.
func (s *State) forPairs(fn func(ra, rb int32)) {
	var r int32
	visit := func(q geom.Point) {
		if b := s.occAt(q); b >= 0 {
			fn(r, s.owners[b])
		}
	}
	for id, pt := range s.pts {
		r = s.owners[id]
		geom.VisitUpperNeighborhood(pt, s.cfg.Radius, s.cfg.Metric, s.side, visit)
	}
}

// price adds w events between ranks a and b to every accumulator in
// ts, each at the network's hop distance (addPair for a canonical
// pair's two events, retractPair to take them back).
func price(ts []tracked, a, b int32, w uint64) {
	for i := range ts {
		t := &ts[i]
		t.acc.Sum += w * uint64(t.topo.Distance(int(a), int(b)))
		t.acc.Count += w
		if a == b {
			t.acc.Zeros += w
		}
	}
}

// reprice prices the current configuration from scratch into ts's
// accumulators.
func (s *State) reprice(ts []tracked) {
	if len(ts) == 0 {
		return
	}
	for i := range ts {
		ts[i].acc = acd.Accumulator{}
	}
	pairs := 0
	s.forPairs(func(ra, rb int32) {
		price(ts, ra, rb, addPair)
		pairs++
	})
	topology.CountDistanceQueries(uint64(pairs * len(ts)))
}

// forAffectedPairs enumerates, in the state's current configuration,
// every near-field pair with at least one affected member and calls fn
// with the members' current owners. Pairs between two affected
// particles are visited once, from the lower identity: the enumeration
// from the higher one skips them, so retract and re-add touch each
// pair's event exactly once regardless of processing order.
func (s *State) forAffectedPairs(affected []int, fn func(ra, rb int32)) int {
	count := 0
	for _, a := range affected {
		ra := s.owners[a]
		geom.VisitNeighborhood(s.pts[a], s.cfg.Radius, s.cfg.Metric, s.side, func(q geom.Point) {
			b := s.occAt(q)
			if b < 0 || (s.mark[b] == s.epoch && int(b) < a) {
				return
			}
			fn(ra, s.owners[b])
			count++
		})
	}
	return count
}

// apply moves the state to the new configuration: occupancy and
// positions for moved particles (old cells cleared before new ones are
// set, so moves that permute cells among themselves stay consistent)
// and recorded owners for the delta'd ones.
func (s *State) apply(newPts []geom.Point, moved []int, deltas []acd.OwnerDelta) {
	for _, id := range moved {
		s.occClear(s.pts[id])
	}
	for _, id := range moved {
		s.pts[id] = newPts[id]
		s.occSet(newPts[id], int32(id))
	}
	for _, d := range deltas {
		s.owners[d.ID] = d.New
	}
}

// Tick advances the state to the new particle configuration (same
// identities, same length; cells must stay distinct). It returns the
// tick's stats, which are identical whichever mechanism maintained the
// accumulators. A duplicate-cell error leaves the state unusable.
func (s *State) Tick(newPts []geom.Point) (TickStats, error) {
	var st TickStats
	if len(newPts) != s.n {
		return st, fmt.Errorf("incr: tick with %d particles, state has %d", len(newPts), s.n)
	}
	tickCounter.Inc()

	moved := s.movedBuf[:0]
	for id := range newPts {
		if newPts[id] != s.pts[id] {
			moved = append(moved, id)
		}
	}
	s.movedBuf = moved
	st.Moved = len(moved)
	movedCounter.Add(uint64(len(moved)))

	for _, id := range moved {
		s.keys[id] = s.cfg.Curve.Index(s.cfg.Order, newPts[id])
	}
	resort := obs.StartSpan("incr.resort")
	st.Displaced = sfc.ResortPermByKeys(s.perm, s.keys)
	resort.End()
	for i := 1; i < s.n; i++ {
		if s.keys[s.perm[i]] == s.keys[s.perm[i-1]] {
			return st, fmt.Errorf("incr: duplicate particle cell %v", newPts[s.perm[i]])
		}
	}

	deltas := acd.DeltaOwners(s.perm, s.owners, s.cfg.P, s.deltaBuf[:0])
	s.deltaBuf = deltas
	st.OwnerMoves = len(deltas)
	ownerMoveCounter.Add(uint64(len(deltas)))
	st.Gauge = float64(len(deltas)) / float64(s.n)
	st.Repartitioned = s.cfg.Policy.Decide(st.Gauge)
	if st.Repartitioned {
		s.repartitions++
		repartitionCounter.Inc()
	}

	s.epoch++
	affected := s.affectedBuf[:0]
	for _, id := range moved {
		if s.mark[id] != s.epoch {
			s.mark[id] = s.epoch
			affected = append(affected, id)
		}
	}
	for _, d := range deltas {
		if s.mark[d.ID] != s.epoch {
			s.mark[d.ID] = s.epoch
			affected = append(affected, d.ID)
		}
	}
	s.affectedBuf = affected

	if rebuild := s.cfg.ForceRebuild || st.Repartitioned; !rebuild {
		span := obs.StartSpan("incr.maintain.delta")
		st.Retracted = s.forAffectedPairs(affected, func(ra, rb int32) {
			price(s.tracked, ra, rb, retractPair)
		})
		s.apply(newPts, moved, deltas)
		st.Readded = s.forAffectedPairs(affected, func(ra, rb int32) {
			price(s.tracked, ra, rb, addPair)
		})
		topology.CountDistanceQueries(uint64((st.Retracted + st.Readded) * len(s.tracked)))
		span.End()
	} else {
		// The retract/re-add counts are part of the tick's reported
		// stats, so a rebuild tick still runs the enumerations — in
		// counting-only form, under a span excluded from the maintenance
		// timings the mechanisms are compared on.
		stats := obs.StartSpan("incr.stats")
		st.Retracted = s.forAffectedPairs(affected, func(ra, rb int32) {})
		stats.End()
		s.apply(newPts, moved, deltas)
		stats = obs.StartSpan("incr.stats")
		st.Readded = s.forAffectedPairs(affected, func(ra, rb int32) {})
		stats.End()
		span := obs.StartSpan("incr.maintain.rebuild")
		s.reprice(s.tracked)
		span.End()
	}
	retractCounter.Add(uint64(st.Retracted))
	readdCounter.Add(uint64(st.Readded))
	return st, nil
}

// Repartitions returns how many ticks the policy decided to rebuild
// on, since construction.
func (s *State) Repartitions() int { return s.repartitions }

// Matrix builds the near-field matrix of the current configuration
// from the maintained occupancy and owners — bit-identical to
// fmmmodel.NFIMatrix over a fresh assignment, which is the
// differential oracle CI compares against. Nothing maintains it: each
// call walks every pair once into a commmat Builder and counts as one
// commmat build.
func (s *State) Matrix() *commmat.Matrix {
	b := commmat.NewBuilder(s.cfg.P, 1)
	sh := b.Shard(0)
	s.forPairs(func(ra, rb int32) {
		if rb < ra {
			ra, rb = rb, ra
		}
		sh.Add(ra, rb)
	})
	return b.Finalize()
}

// ACD returns the near-field accumulator of one distance table's
// network; see ACDMulti.
func (s *State) ACD(dt *topology.DistanceTable) acd.Accumulator {
	return s.ACDMulti([]*topology.DistanceTable{dt})[0]
}

// ACDMulti returns the near-field accumulator of each table's network:
// exactly what fmmmodel.NFIMulti returns on that topology for a fresh
// assignment of the current configuration. The first call on a table
// prices the configuration once (one walk over every pair for all of
// the call's new tables); from then on the state tracks the table and
// every Tick keeps its accumulator exact, so later calls only read
// it. Distances come from the table's underlying topology, one call per
// pair; the table itself is only the handle.
func (s *State) ACDMulti(dts []*topology.DistanceTable) []acd.Accumulator {
	first := len(s.tracked)
	for _, dt := range dts {
		if s.find(dt) < 0 {
			s.tracked = append(s.tracked, tracked{dt: dt, topo: dt.Underlying()})
		}
	}
	s.reprice(s.tracked[first:])
	accs := make([]acd.Accumulator, len(dts))
	for i, dt := range dts {
		accs[i] = s.tracked[s.find(dt)].acc
	}
	return accs
}

// find returns dt's index in s.tracked, or -1.
func (s *State) find(dt *topology.DistanceTable) int {
	return slices.IndexFunc(s.tracked, func(t tracked) bool { return t.dt == dt })
}

// Assignment materializes the maintained order and ownership as a
// batch acd.Assignment (for the model paths the incremental layer does
// not maintain, like the far-field).
func (s *State) Assignment() (*acd.Assignment, error) {
	if cap(s.sortedBuf) < s.n {
		s.sortedBuf = make([]geom.Point, s.n)
	}
	s.sortedBuf = s.sortedBuf[:s.n]
	for i, id := range s.perm {
		s.sortedBuf[i] = s.pts[id]
	}
	return acd.FromSorted(s.sortedBuf, s.cfg.Order, s.cfg.P)
}

// Release drops the state's tracked accumulators and occupancy. The
// state must not be used afterwards. Nothing needs to call it; the
// garbage collector reclaims a state whole.
func (s *State) Release() {
	s.tracked, s.denseOcc, s.sparseOcc = nil, nil, nil
}
