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
//     the near-field pairs incident to affected particles at their
//     pre-tick owners and re-adding them at their post-tick owners,
//     each pair's two events priced at the network's hop distance
//     between the members' owners. A particle that moved is enumerated
//     twice, in the pre-tick and in the post-tick geometry. One that
//     only changed owner kept its neighbors, so a single enumeration
//     before the move retracts and re-adds its pairs.
//
// Every pair enumeration is one loop over the neighborhood's rows,
// computed once per state from geom's visitors, that writes each
// pair's two owners into a fixed-length buffer (the single
// enumeration writes the old owners into one buffer and the new into
// another); a full buffer is priced with one topology.SumPairs call per
// network.
//
// The delta path runs on every tick. The repartition policy still
// reads the drift gauge each tick and its decision is reported, but it
// does not change how the accumulators are maintained; only
// Config.ForceRebuild re-prices every pair from scratch each tick, as
// the cross-mechanism oracle. Either way each maintained accumulator is
// defined to equal exactly what fmmmodel.NFIMulti returns for a fresh
// assignment of the current configuration, and Matrix, built on demand
// from the same occupancy, is bit-identical to fmmmodel.NFIMatrix — the
// differential oracles the tests and CI enforce every tick.
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

// flushLen is the pair buffer's length, as in fmmmodel's pricer: a full
// buffer costs one kernel call per priced network. It is fixed, not
// sized by the enumeration, which may hold up to 2^28 pairs.
const flushLen = 512

// Config fixes one maintained pipeline's parameters for its lifetime.
type Config struct {
	Curve  sfc.Curve
	Order  uint
	P      int
	Radius int
	Metric geom.Metric
	// ForceRebuild re-prices every tracked network from scratch on
	// every tick instead of by delta. It changes no reported value: a
	// forced-rebuild state reports tick-for-tick identical stats and
	// accumulators to a delta state fed the same drift, which is what
	// lets an experiment output serve as a cross-mechanism differential
	// oracle.
	ForceRebuild bool
	// Parent is the span every Tick opens its phases under
	// (incr.resort, then incr.maintain.delta, or incr.stats and
	// incr.maintain.rebuild under ForceRebuild), and Matrix its
	// commmat.finalize; nil records nothing.
	Parent *obs.Span
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
	// Repartitioned is the policy's decision for this tick. It is
	// reported only: the accumulators are maintained the same way
	// either way.
	Repartitioned bool
	// Retracted and Readded count the near-field pairs with at least
	// one affected (moved or owner-changed) member before and after the
	// move was applied. A pair whose members both kept their cells
	// counts on both sides.
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
	// next is each identity's owner once the tick's owner deltas are
	// applied; outside a Tick it equals owners.
	next []int32
	// perm holds identities in curve order.
	perm []int

	// cell -> occupant identity (-1 / absent when empty).
	denseOcc  []int32
	sparseOcc map[uint64]int32

	// tracked holds one accumulator per distance table ACDMulti has
	// priced, kept exact across ticks.
	tracked []tracked

	// near and upper are the rows of a particle's neighborhood and of
	// its upper neighborhood, relative to its cell.
	near, upper []row
	// batch is the pair enumerations' flush buffer; readd is the
	// second one a tick's re-added pairs go into while batch holds its
	// retracted ones.
	batch, readd batch

	// epoch/mark implement the affected set without clearing: epoch is
	// even, and identity id moved this tick iff mark[id] == epoch|1 and
	// only changed owner iff mark[id] == epoch. A pair between two
	// particles of the same kind is visited once, from the lower
	// identity.
	epoch uint64
	mark  []uint64

	deltaBuf     []acd.OwnerDelta
	movedBuf     []int
	ownerOnlyBuf []int
	sortedBuf    []geom.Point

	// policy decides on which ticks the owner churn calls for a
	// repartition (acd.DefaultRepartitionPolicy); the decisions are
	// reported (TickStats.Repartitioned, Repartitions) and do not
	// change the maintenance.
	policy       acd.RepartitionPolicy
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
	n := len(pts)
	side := geom.Side(cfg.Order)
	s := &State{
		cfg:    cfg,
		policy: acd.DefaultRepartitionPolicy(),
		side:   side,
		n:      n,
		pts:    append([]geom.Point(nil), pts...),
		near:   rows(geom.VisitNeighborhood, cfg.Radius, cfg.Metric, side),
		upper:  rows(geom.VisitUpperNeighborhood, cfg.Radius, cfg.Metric, side),
		mark:   make([]uint64, n),
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
	s.next = slices.Clone(s.owners)
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

// occAt returns the occupant of a cell, by geom.CellID, or -1.
func (s *State) occAt(cell uint64) int32 {
	if s.denseOcc != nil {
		return s.denseOcc[cell]
	}
	if id, ok := s.sparseOcc[cell]; ok {
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

// row is one row of a neighborhood, relative to its centre cell: the
// cells (dx, dy) for lo <= dx <= hi.
type row struct{ dy, lo, hi int32 }

// rows returns, in visit order, the rows of the cells visit calls
// around a centre cell: the neighborhood's shape as geom defines it,
// computed once. Rows rather than cells keep it O(r): the 2^28-event
// near-field bound admits one particle at r = 8,191, whose neighborhood
// has 2^28 cells. An offset of side or more leaves every grid, so the
// window is clipped there.
func rows(visit func(geom.Point, int, geom.Metric, uint32, func(geom.Point)), r int, m geom.Metric, side uint32) []row {
	c := min(max(r, 0), int(side)-1)
	var rs []row
	visit(geom.Pt(uint32(c), uint32(c)), r, m, uint32(2*c+1), func(q geom.Point) {
		dx, dy := int32(int(q.X)-c), int32(int(q.Y)-c)
		if k := len(rs) - 1; k >= 0 && rs[k].dy == dy && rs[k].hi+1 == dx {
			rs[k].hi = dx
			return
		}
		rs = append(rs, row{dy, dx, dx})
	})
	return rs
}

// batch is the flush buffer of one pair enumeration and where its pairs
// go: priced on the networks ts at weight w (addPair or retractPair),
// or logged into a matrix shard sh.
type batch struct {
	src, dst [flushLen]int32
	n        int // buffered pairs
	// pairs and zeros count the enumeration's flushed pairs and its
	// pairs between equal owners.
	pairs, zeros int
	ts           []tracked
	w            uint64
	sh           *commmat.Shard
}

// start begins an enumeration into ts at weight w, or into sh.
func (b *batch) start(ts []tracked, w uint64, sh *commmat.Shard) {
	b.ts, b.w, b.sh = ts, w, sh
	b.pairs, b.zeros = 0, 0
}

// flush prices the buffered pairs on every network of the enumeration,
// or logs them into its shard in canonical (smaller rank first) form,
// and empties the buffer.
func (b *batch) flush() {
	src, dst := b.src[:b.n], b.dst[:b.n]
	for i := range b.ts {
		t := &b.ts[i]
		t.acc.Sum += b.w * topology.SumPairs(t.topo, src, dst)
	}
	if b.sh != nil {
		for i, r := range src {
			q := dst[i]
			if q < r {
				r, q = q, r
			}
			b.sh.Add(r, q)
		}
	}
	b.pairs += b.n
	b.n = 0
}

// finish flushes the enumeration, adds its pair and equal-owner counts
// at its weight to its networks' accumulators (one distance query per
// pair and network), and returns its pair count.
func (b *batch) finish() int {
	b.flush()
	for i := range b.ts {
		t := &b.ts[i]
		t.acc.Count += b.w * uint64(b.pairs)
		t.acc.Zeros += b.w * uint64(b.zeros)
	}
	topology.CountDistanceQueries(uint64(b.pairs * len(b.ts)))
	// Drop the targets: a matrix shard would otherwise keep its event
	// log alive until the next enumeration.
	b.ts, b.sh = nil, nil
	return b.pairs
}

// pairsAt buffers into b the pair between particle a and the occupant
// of every cell in rs around it, at their current owners, skipping an
// occupant that moved this tick and has an identity below lo.
func (s *State) pairsAt(b *batch, a int, rs []row, lo int) {
	pt, ra := s.pts[a], s.owners[a]
	mark, moved := s.mark, s.epoch|1
	side := int(s.side)
	for _, r := range rs {
		y := int(pt.Y) + int(r.dy)
		if uint(y) >= uint(side) {
			continue
		}
		base := uint64(y) * uint64(side)
		for x := max(int(pt.X)+int(r.lo), 0); x <= min(int(pt.X)+int(r.hi), side-1); x++ {
			q := s.occAt(base + uint64(x))
			if q < 0 || (mark[q] == moved && int(q) < lo) {
				continue
			}
			rq := s.owners[q]
			// b.n < flushLen throughout; masking it drops the bounds
			// checks.
			b.src[b.n&(flushLen-1)], b.dst[b.n&(flushLen-1)] = ra, rq
			b.zeros += equal(ra, rq)
			if b.n++; b.n == flushLen {
				b.flush()
			}
		}
	}
}

// pairsOnce buffers the pair between owner-only particle a and the
// occupant of every cell of its neighborhood twice: at the old owners
// into batch and at the new ones into readd. It skips a moved
// occupant, whose own enumerations price the pair, and an owner-only
// occupant with an identity below a. The two buffers must start a run
// of these calls equally full; they then fill and flush in step.
func (s *State) pairsOnce(a int) {
	b, c := &s.batch, &s.readd
	pt, ra, na := s.pts[a], s.owners[a], s.next[a]
	mark, epoch := s.mark, s.epoch
	side := int(s.side)
	for _, r := range s.near {
		y := int(pt.Y) + int(r.dy)
		if uint(y) >= uint(side) {
			continue
		}
		base := uint64(y) * uint64(side)
		for x := max(int(pt.X)+int(r.lo), 0); x <= min(int(pt.X)+int(r.hi), side-1); x++ {
			q := s.occAt(base + uint64(x))
			if q < 0 {
				continue
			}
			if m := mark[q]; m == epoch|1 || (m == epoch && int(q) < a) {
				continue
			}
			rq, nq := s.owners[q], s.next[q]
			i := b.n & (flushLen - 1)
			b.src[i], b.dst[i] = ra, rq
			c.src[i], c.dst[i] = na, nq
			b.zeros += equal(ra, rq)
			c.zeros += equal(na, nq)
			b.n++
			if c.n = b.n; b.n == flushLen {
				b.flush()
				c.flush()
			}
		}
	}
}

// equal is 1 if r == q and 0 otherwise, without a branch.
func equal(r, q int32) int {
	x := uint32(r ^ q)
	return int(((x | -x) >> 31) ^ 1)
}

// allPairs enumerates every near-field pair of the current
// configuration once, from its row-major-lower member's upper
// neighborhood (the enumeration a keynav plan records).
func (s *State) allPairs() {
	for id := range s.pts {
		s.pairsAt(&s.batch, id, s.upper, 0)
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
	s.batch.start(ts, addPair, nil)
	s.allPairs()
	s.batch.finish()
}

// apply moves the state to the new configuration: occupancy and
// positions for moved particles and recorded owners for the delta'd
// ones (next already holds them). Old cells are cleared before new ones
// are set, so moves that permute cells among themselves stay
// consistent, and a new cell that is still occupied then is a
// duplicate: only a moved particle can create one.
func (s *State) apply(newPts []geom.Point, moved []int, deltas []acd.OwnerDelta) error {
	for _, id := range moved {
		s.occClear(s.pts[id])
	}
	for _, id := range moved {
		q := newPts[id]
		if s.occAt(geom.CellID(q, s.side)) >= 0 {
			return fmt.Errorf("incr: duplicate particle cell %v", q)
		}
		s.pts[id] = q
		s.occSet(q, int32(id))
	}
	for _, d := range deltas {
		s.owners[d.ID] = d.New
	}
	return nil
}

// delta moves ts's accumulators from the pre-tick to the post-tick
// configuration, applying the tick in between, and returns how many
// pairs it retracted and re-added: every near-field pair with at least
// one affected member, in the configuration before and after. A moved
// particle's pairs are retracted before apply and re-added after it,
// each found by probing its neighborhood in that geometry. An
// owner-only particle kept its cell, and so its neighbors: its pairs
// with particles that did not move are found once, before apply, and
// go into batch at the old owners and into readd at the new ones, so
// they count on both sides. Its pairs with moved particles are left to
// their enumerations. A pair between two particles of the same kind is
// visited once, from the lower identity, so each pair is retracted and
// re-added exactly once regardless of processing order.
func (s *State) delta(newPts []geom.Point, moved, ownerOnly []int, deltas []acd.OwnerDelta, ts []tracked) (retracted, readded int, err error) {
	s.batch.start(ts, retractPair, nil)
	s.readd.start(ts, addPair, nil)
	// Both buffers are empty here, as pairsOnce needs.
	for _, a := range ownerOnly {
		s.pairsOnce(a)
	}
	for _, a := range moved {
		s.pairsAt(&s.batch, a, s.near, a)
	}
	retracted = s.batch.finish()
	if err := s.apply(newPts, moved, deltas); err != nil {
		return retracted, 0, err
	}
	for _, a := range moved {
		s.pairsAt(&s.readd, a, s.near, a)
	}
	return retracted, s.readd.finish(), nil
}

// Tick advances the state to the new particle configuration (same
// identities, same length; cells must stay distinct). It re-sorts the
// moved particles' keys, finds the owner deltas and repairs every
// tracked accumulator by delta (see delta). It returns the tick's
// stats, which are identical whichever mechanism maintained the
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
	resort := s.cfg.Parent.Child("incr.resort")
	st.Displaced = sfc.ResortPermByKeys(s.perm, s.keys)
	resort.End()

	deltas := acd.DeltaOwners(s.perm, s.owners, s.cfg.P, s.deltaBuf[:0])
	s.deltaBuf = deltas
	st.OwnerMoves = len(deltas)
	ownerMoveCounter.Add(uint64(len(deltas)))
	st.Gauge = float64(len(deltas)) / float64(s.n)
	st.Repartitioned = s.policy.Decide(st.Gauge)
	if st.Repartitioned {
		s.repartitions++
		repartitionCounter.Inc()
	}

	s.epoch += 2
	for _, id := range moved {
		s.mark[id] = s.epoch | 1
	}
	ownerOnly := s.ownerOnlyBuf[:0]
	for _, d := range deltas {
		s.next[d.ID] = d.New
		if s.mark[d.ID] != s.epoch|1 {
			s.mark[d.ID] = s.epoch
			ownerOnly = append(ownerOnly, d.ID)
		}
	}
	s.ownerOnlyBuf = ownerOnly

	// A ForceRebuild state still runs the enumerations for the tick's
	// reported stats, counting only, under a span excluded from the
	// maintenance timings the mechanisms are compared on.
	ts, name := s.tracked, "incr.maintain.delta"
	if s.cfg.ForceRebuild {
		ts, name = nil, "incr.stats"
	}
	span := s.cfg.Parent.Child(name)
	var err error
	st.Retracted, st.Readded, err = s.delta(newPts, moved, ownerOnly, deltas, ts)
	span.End()
	if err != nil {
		return st, err
	}
	if s.cfg.ForceRebuild {
		span := s.cfg.Parent.Child("incr.maintain.rebuild")
		s.reprice(s.tracked)
		span.End()
	}
	retractCounter.Add(uint64(st.Retracted))
	readdCounter.Add(uint64(st.Readded))
	return st, nil
}

// Repartitions returns how many ticks the policy flagged for a
// repartition, since construction.
func (s *State) Repartitions() int { return s.repartitions }

// Matrix builds the near-field matrix of the current configuration
// from the maintained occupancy and owners — bit-identical to
// fmmmodel.NFIMatrix over a fresh assignment, which is the
// differential oracle CI compares against. Nothing maintains it: each
// call walks every pair once into a commmat Builder and counts as one
// commmat build.
func (s *State) Matrix() *commmat.Matrix {
	b := commmat.NewBuilder(s.cfg.P, 1)
	s.batch.start(nil, 0, b.Shard(0))
	s.allPairs()
	s.batch.finish()
	return b.Finalize(s.cfg.Parent)
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
// it. Distances come from the table's underlying topology, one
// topology.SumPairs call per buffer of pairs; the table itself is only
// the handle.
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
