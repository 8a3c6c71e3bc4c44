package incr

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// assignPoints is acd.Assign over a private set of pts.
func assignPoints(pts []geom.Point, curve sfc.Curve, order uint, p int) (*acd.Assignment, error) {
	set, err := keynav.NewSet(nil, order, pts)
	if err != nil {
		return nil, err
	}
	return acd.Assign(nil, set, curve, p)
}

// scatter places n particles on distinct cells of a 2^order grid.
func scatter(n int, order uint, seed uint64) []geom.Point {
	return scatterIn(n, order, 0, 0, geom.Side(order), seed)
}

// driftStep moves roughly frac of the particles by one cell, skipping
// moves that would collide or leave the grid (same discipline as the
// dynamic experiments: identity order, evolving occupancy).
func driftStep(pts []geom.Point, order uint, frac float64, r *rng.Rand) []geom.Point {
	side := geom.Side(order)
	occ := make(map[uint64]bool, len(pts))
	for _, pt := range pts {
		occ[geom.CellID(pt, side)] = true
	}
	out := append([]geom.Point(nil), pts...)
	for i, pt := range out {
		if float64(r.Uint32n(1<<20))/float64(1<<20) >= frac {
			continue
		}
		dx := int(r.Uint32n(3)) - 1
		dy := int(r.Uint32n(3)) - 1
		nx, ny := int(pt.X)+dx, int(pt.Y)+dy
		if (dx == 0 && dy == 0) || nx < 0 || ny < 0 || nx >= int(side) || ny >= int(side) {
			continue
		}
		q := geom.Point{X: uint32(nx), Y: uint32(ny)}
		if occ[geom.CellID(q, side)] {
			continue
		}
		delete(occ, geom.CellID(pt, side))
		occ[geom.CellID(q, side)] = true
		out[i] = q
	}
	return out
}

// scatterIn places n particles on distinct cells of the w x w window
// at (x0, y0) of a 2^order grid.
func scatterIn(n int, order uint, x0, y0, w uint32, seed uint64) []geom.Point {
	r := rng.New(seed)
	side := geom.Side(order)
	seen := make(map[uint64]bool, n)
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		pt := geom.Point{X: x0 + r.Uint32n(w), Y: y0 + r.Uint32n(w)}
		if id := geom.CellID(pt, side); !seen[id] {
			seen[id] = true
			pts = append(pts, pt)
		}
	}
	return pts
}

// teleport reverses the point set: identities trade cells, so nearly
// every identity changes owner (massive churn, no collisions) while
// each occupied cell keeps its owner.
func teleport(pts []geom.Point) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	slices.Reverse(out)
	return out
}

// sixTables returns one topology of every kind over p ranks, each
// wrapped in its own fresh distance table.
func sixTables(t *testing.T, p int, curve sfc.Curve) ([]topology.Topology, []*topology.DistanceTable) {
	t.Helper()
	topos := make([]topology.Topology, len(topology.Kinds))
	dts := make([]*topology.DistanceTable, len(topology.Kinds))
	for i, kind := range topology.Kinds {
		topo, err := topology.New(kind, p, curve)
		if err != nil {
			t.Fatal(err)
		}
		topos[i], dts[i] = topo, topology.NewDistanceTable(topo)
	}
	return topos, dts
}

// oracleACD is fmmmodel.NFIMulti over a fresh assignment of pts.
func oracleACD(t *testing.T, pts []geom.Point, cfg Config, topos []topology.Topology) []acd.Accumulator {
	t.Helper()
	a, err := assignPoints(pts, cfg.Curve, cfg.Order, cfg.P)
	if err != nil {
		t.Fatal(err)
	}
	return fmmmodel.NFIMulti(a, topos, fmmmodel.NFIOptions{Radius: cfg.Radius, Metric: cfg.Metric, Workers: 1})
}

// checkAccs fails unless got equals want, network for network.
func checkAccs(t *testing.T, what string, got, want []acd.Accumulator) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d accumulators, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: accumulator %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

func oracleMatrix(t *testing.T, pts []geom.Point, curve sfc.Curve, order uint, p, radius int, m geom.Metric) (*commmat.Matrix, *acd.Assignment) {
	t.Helper()
	a, err := assignPoints(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	return fmmmodel.NFIMatrix(a, fmmmodel.NFIOptions{Radius: radius, Metric: m, Workers: 1}), a
}

// TestStateMatchesOracleEveryTick is the matrix's differential oracle:
// after every tick the matrix Matrix builds from the maintained
// occupancy and owners must equal a from-scratch fmmmodel.NFIMatrix of
// the current configuration, and the maintained assignment must equal a
// from-scratch acd.Assign.
func TestStateMatchesOracleEveryTick(t *testing.T) {
	for _, curveName := range []string{"hilbert", "morton"} {
		for _, metric := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			curve, err := sfc.ByName(curveName)
			if err != nil {
				t.Fatal(err)
			}
			const order, p, radius = 6, 13, 2
			pts := scatter(900, order, 31)
			s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: metric}, pts)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(77)
			for tick := 0; tick < 10; tick++ {
				pts = driftStep(pts, order, 0.05, r)
				if _, err := s.Tick(pts); err != nil {
					t.Fatalf("%s/%v tick %d: %v", curveName, metric, tick, err)
				}
				want, oracle := oracleMatrix(t, pts, curve, order, p, radius, metric)
				if !commmat.Equal(s.Matrix(), want) {
					t.Fatalf("%s/%v tick %d: matrix diverged from oracle", curveName, metric, tick)
				}
				got, err := s.Assignment()
				if err != nil {
					t.Fatal(err)
				}
				// The maintained set holds the points in curve order; the
				// oracle's holds them in input order.
				owners := oracle.Owners()
				for k, i := range sfc.SortPoints(curve, order, pts) {
					gp := got.KeyIndex().Set().Points()[k]
					if gp != pts[i] || got.Owners()[k] != owners[i] {
						t.Fatalf("%s/%v tick %d: assignment position %d = (%v,%d), oracle (%v,%d)",
							curveName, metric, tick, k, gp, got.Owners()[k], pts[i], owners[i])
					}
				}
			}
			s.Release()
		}
	}
}

// TestStateRepartitionTick drives the gauge over the policy's
// high-water mark with a mass teleport, which the delta path maintains
// like any other tick, and checks the state lands exactly on the
// oracle, then that the hysteresis releases once the gauge falls below
// the low-water mark.
func TestStateRepartitionTick(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	const order, p, radius = 6, 11, 1
	pts := scatter(600, order, 5)
	s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}, pts)
	if err != nil {
		t.Fatal(err)
	}
	flipped := teleport(pts)
	st, err := s.Tick(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Repartitioned {
		t.Fatalf("teleport tick gauge %.3f did not trigger repartition", st.Gauge)
	}
	if s.Repartitions() != 1 {
		t.Fatalf("Repartitions = %d, want 1", s.Repartitions())
	}
	want, _ := oracleMatrix(t, flipped, curve, order, p, radius, geom.MetricChebyshev)
	if !commmat.Equal(s.Matrix(), want) {
		t.Fatal("matrix diverged after repartition tick")
	}
	// A quiet tick after the storm: gauge 0 < Lo releases the policy,
	// and the state stays on the oracle.
	st, err = s.Tick(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repartitioned {
		t.Fatalf("quiet tick (gauge %.3f) still repartitioned", st.Gauge)
	}
	r := rng.New(9)
	moved := driftStep(flipped, order, 0.03, r)
	if _, err := s.Tick(moved); err != nil {
		t.Fatal(err)
	}
	want, _ = oracleMatrix(t, moved, curve, order, p, radius, geom.MetricChebyshev)
	if !commmat.Equal(s.Matrix(), want) {
		t.Fatal("matrix diverged after post-repartition delta tick")
	}
	s.Release()
}

// TestStateMatchesFreshStateEveryTick: after every tick, a state
// maintained by deltas must hold the matrix and the accumulators of a
// fresh NewState of the same configuration built on the tick's
// particles, on tables priced since tick 0 for the maintained state
// and priced once for each fresh one. p = 7 admits the bus and the
// ring.
func TestStateMatchesFreshStateEveryTick(t *testing.T) {
	curve, err := sfc.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	const order, p, radius = 6, 7, 2
	pts := scatter(700, order, 13)
	cfg := Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}
	s, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	tables := func() []*topology.DistanceTable {
		return []*topology.DistanceTable{topology.NewDistanceTable(topology.NewBus(p)), topology.NewDistanceTable(topology.NewRing(p))}
	}
	dts := tables()
	s.ACDMulti(dts)
	r := rng.New(21)
	for tick := 0; tick < 8; tick++ {
		pts = driftStep(pts, order, 0.08, r)
		if _, err := s.Tick(pts); err != nil {
			t.Fatal(err)
		}
		fresh, err := NewState(cfg, pts)
		if err != nil {
			t.Fatal(err)
		}
		if !commmat.Equal(s.Matrix(), fresh.Matrix()) {
			t.Fatalf("tick %d: the maintained matrix differs from a fresh state's", tick)
		}
		checkAccs(t, fmt.Sprintf("tick %d", tick), s.ACDMulti(dts), fresh.ACDMulti(tables()))
	}
}

// nearPairsWith counts, over every pair of particles, the near-field
// pairs of pts with at least one member in affected.
func nearPairsWith(pts []geom.Point, affected []bool, radius int, m geom.Metric) int {
	count := 0
	for i := range pts {
		for j := i + 1; j < len(pts); j++ {
			if (affected[i] || affected[j]) && m.Dist(pts[i], pts[j]) <= radius {
				count++
			}
		}
	}
	return count
}

// freshOwners returns the owners a fresh state assigns pts.
func freshOwners(t *testing.T, cfg Config, pts []geom.Point) []int32 {
	t.Helper()
	s, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	return s.owners
}

// checkTickStats ticks s from pre to post and checks its stats
// against counts made without the delta enumerations: the moved
// particles, the owner changes between fresh states of the two
// configurations, and, over every pair of particles, the near-field
// pairs with at least one affected (moved or owner-changed) member
// before and after the tick.
func checkTickStats(t *testing.T, what string, cfg Config, s *State, pre, post []geom.Point) {
	t.Helper()
	was, is := freshOwners(t, cfg, pre), freshOwners(t, cfg, post)
	affected := make([]bool, len(pre))
	var moved, ownerMoves int
	for id := range pre {
		if pre[id] != post[id] {
			moved++
			affected[id] = true
		}
		if was[id] != is[id] {
			ownerMoves++
			affected[id] = true
		}
	}
	want := TickStats{
		Moved:      moved,
		OwnerMoves: ownerMoves,
		Retracted:  nearPairsWith(pre, affected, cfg.Radius, cfg.Metric),
		Readded:    nearPairsWith(post, affected, cfg.Radius, cfg.Metric),
	}
	st, err := s.Tick(post)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	got := TickStats{Moved: st.Moved, OwnerMoves: st.OwnerMoves, Retracted: st.Retracted, Readded: st.Readded}
	if got != want {
		t.Fatalf("%s: stats %+v, brute force %+v", what, got, want)
	}
}

// TestTickStatsMatchBruteForce pins every tick's Retracted and Readded
// independently of the enumerations that produce them: each must equal
// an all-pairs count of the near-field pairs with at least one affected
// member, in the pre-tick and in the post-tick configuration. Most
// affected particles only change owner and are enumerated once for
// both counts; the rest moved and are enumerated on each side. It runs
// every paper curve under both metrics at radii 1 and 2, through drift
// ticks and a teleport, and a state on the sparse occupancy map.
func TestTickStatsMatchBruteForce(t *testing.T) {
	const order, p, teleportTick = 6, 17, 3
	for _, curve := range sfc.All() {
		for _, metric := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			for _, radius := range []int{1, 2} {
				cfg := Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: metric}
				pts := scatter(700, order, 51)
				s, err := NewState(cfg, pts)
				if err != nil {
					t.Fatal(err)
				}
				r := rng.New(53)
				for tick := 1; tick <= 6; tick++ {
					next := driftStep(pts, order, 0.04, r)
					if tick == teleportTick {
						next = teleport(pts)
					}
					checkTickStats(t, fmt.Sprintf("%s/%v/r=%d tick %d", curve.Name(), metric, radius, tick), cfg, s, pts, next)
					pts = next
				}
			}
		}
	}

	// 4^13 cells exceed the dense occupancy array; the particles crowd
	// one corner's window so that they have neighbors.
	const sparseOrder = 13
	cfg := Config{Curve: sfc.Hilbert, Order: sparseOrder, P: 9, Radius: 2, Metric: geom.MetricChebyshev}
	side := geom.Side(sparseOrder)
	pts := scatterIn(500, sparseOrder, side-48, side-48, 48, 57)
	s, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	if s.sparseOcc == nil {
		t.Fatal("an order-13 state keeps a dense occupancy array")
	}
	r := rng.New(59)
	for tick := 1; tick <= 4; tick++ {
		next := driftStep(pts, sparseOrder, 0.05, r)
		checkTickStats(t, fmt.Sprintf("order %d tick %d", sparseOrder, tick), cfg, s, pts, next)
		pts = next
	}
}

// TestStateACDMatchesBatch checks a table first priced after a tick
// against the batch NFIMulti path on the same topology.
func TestStateACDMatchesBatch(t *testing.T) {
	curve, err := sfc.ByName("morton")
	if err != nil {
		t.Fatal(err)
	}
	const order, procOrder, radius = 6, 3, 1
	p := 1 << (2 * procOrder)
	pts := scatter(800, order, 3)
	s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}, pts)
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.NewTorus(procOrder, curve)
	dt := topology.NewDistanceTable(torus)
	r := rng.New(8)
	pts = driftStep(pts, order, 0.05, r)
	if _, err := s.Tick(pts); err != nil {
		t.Fatal(err)
	}
	got := s.ACD(dt)
	a, err := assignPoints(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	want := fmmmodel.NFIMulti(a, []topology.Topology{torus}, fmmmodel.NFIOptions{Radius: radius, Metric: geom.MetricChebyshev, Workers: 1})[0]
	if got != want {
		t.Fatalf("ACD accumulator: got %+v, want %+v", got, want)
	}
	s.Release()
}

// TestStateRejectsBadInput covers construction and tick validation.
func TestStateRejectsBadInput(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewState(Config{Curve: nil, Order: 4, P: 2}, scatter(10, 4, 1)); err == nil {
		t.Fatal("nil curve accepted")
	}
	if _, err := NewState(Config{Curve: curve, Order: 4, P: 0}, scatter(10, 4, 1)); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewState(Config{Curve: curve, Order: 4, P: 2}, nil); err == nil {
		t.Fatal("empty particles accepted")
	}
	dup := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}
	if _, err := NewState(Config{Curve: curve, Order: 4, P: 2}, dup); err == nil {
		t.Fatal("duplicate cells accepted")
	}
	cfg := Config{Curve: curve, Order: 4, P: 2, Radius: 1, Metric: geom.MetricChebyshev}
	pts := scatter(10, 4, 1)
	s, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(scatter(9, 4, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
	// A tick creates a duplicate only by moving a particle onto a cell
	// that is still occupied once every moved particle has left its own.
	empty := geom.Pt(0, 0)
	for slices.Contains(pts, empty) {
		empty.X++
	}
	for name, move := range map[string]func(next []geom.Point){
		"onto a resting particle": func(next []geom.Point) { next[0] = pts[1] },
		"two onto one empty cell": func(next []geom.Point) { next[0], next[1] = empty, empty },
	} {
		s, err := NewState(cfg, pts)
		if err != nil {
			t.Fatal(err)
		}
		next := slices.Clone(pts)
		move(next)
		if _, err := s.Tick(next); err == nil || !strings.Contains(err.Error(), "duplicate particle cell") {
			t.Errorf("moving %s: error %v, want a duplicate particle cell", name, err)
		}
	}
}

// TestTickSwapsCells: two particles that trade cells in one tick leave
// every cell distinct, so the tick must succeed and the accumulators
// must equal fmmmodel.NFIMulti.
func TestTickSwapsCells(t *testing.T) {
	const order, procOrder = 5, 2
	pts := scatter(300, order, 11)
	cfg := Config{Curve: sfc.Hilbert, Order: order, P: 1 << (2 * procOrder), Radius: 1, Metric: geom.MetricChebyshev}
	s, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	topos, dts := sixTables(t, cfg.P, cfg.Curve)
	s.ACDMulti(dts)
	next := slices.Clone(pts)
	last := len(next) - 1
	next[0], next[last] = next[last], next[0]
	st, err := s.Tick(next)
	if err != nil {
		t.Fatalf("swap rejected: %v", err)
	}
	if st.Moved != 2 {
		t.Fatalf("swap moved %d particles, want 2", st.Moved)
	}
	checkAccs(t, "after the swap", s.ACDMulti(dts), oracleACD(t, next, cfg, topos))
}

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// TestTickAllocs pins a steady-state tick's allocations: the flush
// buffer has a fixed length and every per-tick list reuses its storage,
// and a state built without a parent opens no span, so a tick, and a
// tick followed by the ACD read of its tracked table, allocate nothing.
// A state built under a parent still records both of a tick's phases,
// once per tick.
func TestTickAllocs(t *testing.T) {
	const order, procOrder = 8, 4
	pts := scatter(4000, order, 3)
	cfg := Config{Curve: sfc.Hilbert, Order: order, P: 1 << (2 * procOrder), Radius: 1, Metric: geom.MetricChebyshev}
	// Ticks alternate between two configurations, so every tick moves
	// the same particles.
	cfgs := [][]geom.Point{driftStep(pts, order, 0.03, rng.New(5)), pts}
	dt := topology.NewDistanceTable(topology.NewTorus(procOrder, cfg.Curve))
	newState := func(cfg Config) *State {
		s, err := NewState(cfg, pts)
		if err != nil {
			t.Fatal(err)
		}
		s.ACD(dt)
		return s
	}

	if !raceEnabled { // the race detector allocates on its own account
		s := newState(cfg)
		for _, read := range []bool{false, true} {
			k := 0
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := s.Tick(cfgs[k%2]); err != nil {
					t.Fatal(err)
				}
				if read {
					s.ACD(dt)
				}
				k++
			})
			if allocs != 0 {
				t.Fatalf("a steady-state tick (ACD read %v) allocates %v objects, want 0", read, allocs)
			}
		}
	}

	tracer := obs.NewTracer()
	cfg.Parent = tracer.Root().Child("sweep")
	s := newState(cfg)
	const ticks = 5
	for k := 0; k < ticks; k++ {
		if _, err := s.Tick(cfgs[k%2]); err != nil {
			t.Fatal(err)
		}
	}
	phases := tracer.Take()
	if len(phases) != 1 || phases[0].Name != "sweep" {
		t.Fatalf("tree = %+v, want one sweep", phases)
	}
	var got []string
	for _, c := range phases[0].Children {
		got = append(got, fmt.Sprintf("%s:%d", c.Name, c.Calls))
	}
	if want := fmt.Sprintf("incr.resort:%d incr.maintain.delta:%d", ticks, ticks); strings.Join(got, " ") != want {
		t.Errorf("sweep children = %v, want %s", got, want)
	}
}

// TestStateACDMultiMatchesPerTable pins the shared pricing walk: six
// tables, one of every topology kind, first priced together by one
// ACDMulti call must each hold exactly what ACD returns when it prices
// the same network alone on a fresh table.
func TestStateACDMultiMatchesPerTable(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	const order, procOrder, radius = 6, 3, 1
	p := 1 << (2 * procOrder)
	pts := scatter(900, order, 5)
	s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	r := rng.New(23)
	for tick := 0; tick < 3; tick++ {
		pts = driftStep(pts, order, 0.05, r)
		if _, err := s.Tick(pts); err != nil {
			t.Fatal(err)
		}
	}
	topos, tables := sixTables(t, p, curve)
	together := s.ACDMulti(tables)
	for i, topo := range topos {
		want := s.ACD(topology.NewDistanceTable(topo))
		if together[i] != want {
			t.Fatalf("%s: ACDMulti %+v != ACD alone %+v",
				topo.Name(), together[i], want)
		}
	}
}

// TestStateAccumulatorsMatchOracleEveryTick is the accumulators'
// differential oracle: six networks, one of every topology kind, and a
// 3D torus, which has no batched kernel and prices pair by pair,
// priced at tick 0 and tracked from then on must equal
// fmmmodel.NFIMulti over a fresh assignment after every tick, for
// every paper curve under both metrics, through drift ticks, a
// teleport that trips the
// repartition policy and the delta ticks after it.
func TestStateAccumulatorsMatchOracleEveryTick(t *testing.T) {
	const order, procOrder, radius, teleportTick = 6, 3, 2, 5
	for _, curve := range sfc.All() {
		curveName := curve.Name()
		for _, metric := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			cfg := Config{Curve: curve, Order: order, P: 1 << (2 * procOrder), Radius: radius, Metric: metric}
			pts := scatter(900, order, 41)
			delta, err := NewState(cfg, pts)
			if err != nil {
				t.Fatal(err)
			}
			topos, dts := sixTables(t, cfg.P, curve)
			// p = 64 = 4^3 ranks.
			torus3D := topology.NewTorus3D(2, sfc.HilbertND{N: 3})
			topos = append(topos, torus3D)
			dts = append(dts, topology.NewDistanceTable(torus3D))
			checkAccs(t, "tick 0", delta.ACDMulti(dts), oracleACD(t, pts, cfg, topos))
			r := rng.New(43)
			held := false // the policy's flag on the previous tick
			for tick := 1; tick <= 9; tick++ {
				if tick == teleportTick {
					// Reversal alone keeps every cell's owner, and so the
					// ACD; the drift on top changes it.
					pts = teleport(pts)
				}
				pts = driftStep(pts, order, 0.04, r)
				st, err := delta.Tick(pts)
				if err != nil {
					t.Fatal(err)
				}
				// Only the teleport reaches the high-water mark; the flag
				// then holds until the gauge falls below the low-water
				// mark (one more tick on gray).
				if want := tick == teleportTick || (held && st.Gauge >= acd.DefaultRepartitionPolicy().Lo); st.Repartitioned != want {
					t.Fatalf("%s/%v tick %d: repartitioned %v at gauge %.3f", curveName, metric, tick, st.Repartitioned, st.Gauge)
				}
				held = st.Repartitioned
				checkAccs(t, fmt.Sprintf("%s/%v tick %d", curveName, metric, tick), delta.ACDMulti(dts), oracleACD(t, pts, cfg, topos))
			}
		}
	}
}

// TestStateLateTableMatchesTracked: a table first priced after several
// ticks, in a call that also reads tracked tables, must equal a table
// of the same network tracked since tick 0 through drift and teleport
// ticks, and the two must stay equal once both are tracked.
func TestStateLateTableMatchesTracked(t *testing.T) {
	curve, err := sfc.ByName("morton")
	if err != nil {
		t.Fatal(err)
	}
	const order, procOrder, radius = 6, 2, 1
	cfg := Config{Curve: curve, Order: order, P: 1 << (2 * procOrder), Radius: radius, Metric: geom.MetricChebyshev}
	pts := scatter(700, order, 17)
	s, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	_, early := sixTables(t, cfg.P, curve)
	s.ACDMulti(early)
	r := rng.New(19)
	for tick := 0; tick < 6; tick++ {
		if tick == 3 {
			pts = teleport(pts)
		}
		pts = driftStep(pts, order, 0.05, r)
		if _, err := s.Tick(pts); err != nil {
			t.Fatal(err)
		}
	}
	_, late := sixTables(t, cfg.P, curve)
	both := s.ACDMulti(append(slices.Clone(early), late...))
	checkAccs(t, "first pricing", both[len(early):], both[:len(early)])
	for tick := 0; tick < 3; tick++ {
		pts = driftStep(pts, order, 0.05, r)
		if _, err := s.Tick(pts); err != nil {
			t.Fatal(err)
		}
		checkAccs(t, fmt.Sprintf("tick %d after", tick), s.ACDMulti(late), s.ACDMulti(early))
	}
}

// TestStateRadiusBeyondGrid: a radius wider than the grid puts every
// other particle in the near field. The rows are clipped at the grid's
// side, so the accumulators and the matrix must still equal the
// oracles', under both metrics.
func TestStateRadiusBeyondGrid(t *testing.T) {
	const order, procOrder = 3, 1
	for _, radius := range []int{7, 9, 40} {
		for _, metric := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			cfg := Config{Curve: sfc.Morton, Order: order, P: 1 << (2 * procOrder), Radius: radius, Metric: metric}
			pts := scatter(30, order, 7)
			s, err := NewState(cfg, pts)
			if err != nil {
				t.Fatal(err)
			}
			topos, dts := sixTables(t, cfg.P, cfg.Curve)
			s.ACDMulti(dts)
			r := rng.New(3)
			for tick := 0; tick < 3; tick++ {
				pts = driftStep(pts, order, 0.2, r)
				if _, err := s.Tick(pts); err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("r=%d %v tick %d", radius, metric, tick)
				checkAccs(t, what, s.ACDMulti(dts), oracleACD(t, pts, cfg, topos))
				if want, _ := oracleMatrix(t, pts, cfg.Curve, order, cfg.P, radius, metric); !commmat.Equal(s.Matrix(), want) {
					t.Fatalf("%s: matrix diverged from oracle", what)
				}
			}
		}
	}
}
