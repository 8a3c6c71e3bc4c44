package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sfcacd/internal/commmat"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/incr"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// The drift workload maintains one incr.State per paper curve over a
// ballistic trajectory: n = 15,625 particles on a 256x256 grid, p =
// 4,096, radius 1, Chebyshev neighborhoods. Each tick advances all four
// states and prices each on its curve's torus with ACDMulti.
const (
	driftParticles = 15625
	driftOrder     = 8
	driftProcOrder = 6
	driftRadius    = 1
	// driftTicks is the trajectory length; runs that outlast it play it
	// backwards and forwards again, which keeps every step a small
	// drift.
	driftTicks = 1024
	// driftTracedTicks is how many ticks the traced run times.
	driftTracedTicks = 256
	// driftCalibrateEvery is how many ticks run between two runs of the
	// calibration kernel.
	driftCalibrateEvery = 16
	// driftStep is how far a unit-speed particle moves per tick, in
	// cells.
	driftStep = 0.02
)

// move is one particle changing cell in one tick.
type move struct {
	id       int32
	from, to geom.Point
}

// trajectory is a recorded drift: the initial cells and each tick's
// moves.
type trajectory struct {
	start []geom.Point
	ticks [][]move
}

// newTrajectory simulates ballistic drift from the seed: particles
// start uniformly placed within distinct uniformly sampled cells, with
// speeds of 0.5-1.5 x driftStep cells per tick and uniform headings,
// and reflect off the grid walls. Positions project to cells in
// identity order, one particle per cell: a particle whose target cell
// is taken keeps its cell until the target frees up.
func newTrajectory(seed int64, n int, order uint, ticks int) (*trajectory, error) {
	r := rng.New(uint64(seed))
	cells, err := dist.SampleUnique(dist.Uniform, r, order, n)
	if err != nil {
		return nil, err
	}
	side := geom.Side(order)
	fside := float64(side)
	x, y := make([]float64, n), make([]float64, n)
	vx, vy := make([]float64, n), make([]float64, n)
	occ := make([]bool, geom.Cells(order))
	for i, c := range cells {
		x[i] = float64(c.X) + r.Float64()
		y[i] = float64(c.Y) + r.Float64()
		speed := driftStep * (0.5 + r.Float64())
		theta := 2 * math.Pi * r.Float64()
		vx[i], vy[i] = speed*math.Cos(theta), speed*math.Sin(theta)
		occ[geom.CellID(c, side)] = true
	}
	reflect := func(p, v *float64) {
		*p += *v
		if *p < 0 {
			*p, *v = -*p, -*v
		}
		if *p >= fside {
			*p, *v = math.Nextafter(2*fside-*p, 0), -*v
		}
	}
	tr := &trajectory{start: append([]geom.Point(nil), cells...)}
	for t := 0; t < ticks; t++ {
		var moves []move
		for i := range cells {
			reflect(&x[i], &vx[i])
			reflect(&y[i], &vy[i])
			q := geom.Pt(min(uint32(x[i]), side-1), min(uint32(y[i]), side-1))
			if q == cells[i] || occ[geom.CellID(q, side)] {
				continue
			}
			occ[geom.CellID(cells[i], side)] = false
			occ[geom.CellID(q, side)] = true
			moves = append(moves, move{id: int32(i), from: cells[i], to: q})
			cells[i] = q
		}
		tr.ticks = append(tr.ticks, moves)
	}
	return tr, nil
}

// step applies step k (0-based) of the endless playback to cfg and
// returns how many particles it moved. Steps run the recorded ticks
// forwards, then backwards, then forwards again.
func (tr *trajectory) step(k int, cfg []geom.Point) int {
	T := len(tr.ticks)
	k %= 2 * T
	if k < T {
		for _, m := range tr.ticks[k] {
			cfg[m.id] = m.to
		}
		return len(tr.ticks[k])
	}
	moves := tr.ticks[2*T-1-k]
	for _, m := range moves {
		cfg[m.id] = m.from
	}
	return len(moves)
}

// driftSetup is the drift workload's state after set-up.
type driftSetup struct {
	traj   *trajectory
	cfg    []geom.Point // the current configuration
	curves []sfc.Curve
	states []*incr.State
	dts    []*topology.DistanceTable
}

func driftConfig(c sfc.Curve) incr.Config {
	return incr.Config{Curve: c, Order: driftOrder, P: 1 << (2 * driftProcOrder), Radius: driftRadius, Metric: geom.MetricChebyshev}
}

// newDriftSetup records the trajectory and builds one state and one
// torus distance table per curve.
func newDriftSetup(seed int64) (*driftSetup, error) {
	traj, err := newTrajectory(seed, driftParticles, driftOrder, driftTicks)
	if err != nil {
		return nil, err
	}
	s := &driftSetup{traj: traj, cfg: append([]geom.Point(nil), traj.start...), curves: sfc.All()}
	for _, c := range s.curves {
		st, err := incr.NewState(driftConfig(c), s.cfg)
		if err != nil {
			s.release()
			return nil, err
		}
		s.states = append(s.states, st)
		s.dts = append(s.dts, topology.NewDistanceTable(topology.NewTorus(driftProcOrder, c)))
	}
	return s, nil
}

func (s *driftSetup) release() {
	for _, st := range s.states {
		st.Release()
	}
}

// tickCurve advances curve c's state to the current configuration and
// prices it.
func (s *driftSetup) tickCurve(c int) (incr.TickStats, error) {
	st, err := s.states[c].Tick(s.cfg)
	if err != nil {
		return st, err
	}
	s.states[c].ACDMulti(s.dts[c : c+1])
	return st, nil
}

// checkTick counts one tick, failed when a curve erred or saw a
// different number of moved particles than the trajectory holds.
func checkTick(r *report, k, moved int, stats []incr.TickStats, errs []error) {
	for c := range stats {
		if errs[c] != nil {
			r.fail("drift step %d curve %d: %v", k, c, errs[c])
			return
		}
		if stats[c].Moved != moved {
			r.fail("drift step %d curve %d moved %d particles, trajectory moved %d", k, c, stats[c].Moved, moved)
			return
		}
	}
	r.op(true)
}

// checkFinal compares every maintained state with a fresh build on
// the final configuration: equal matrices and identical ACD. The fresh
// builds are traced as incr.rebuild.
func (s *driftSetup) checkFinal(tr *tracer, r *report) error {
	for c, curve := range s.curves {
		var fresh *incr.State
		var err error
		tr.timed("incr.rebuild", func() { fresh, err = incr.NewState(driftConfig(curve), s.cfg) })
		if err != nil {
			return err
		}
		got := s.states[c].ACDMulti(s.dts[c : c+1])[0]
		want := fresh.ACDMulti(s.dts[c : c+1])[0]
		if !commmat.Equal(s.states[c].Matrix(), fresh.Matrix()) || got != want {
			r.fail("drift curve %s: maintained state (ACD %v) differs from a fresh build (ACD %v)", curve.Name(), got, want)
		} else {
			r.op(true)
		}
		fresh.Release()
	}
	return nil
}

// runDrift measures the end-to-end metrics. Set-up is the trajectory
// plus the four initial states. Each tick advances the four curves on
// two goroutines.
func runDrift(cfg config, r *report) error {
	cal := newCalibrator()
	s, setup, err := repeatSetup(cal, func() (*driftSetup, error) { return newDriftSetup(cfg.seed) },
		func(s *driftSetup) error { s.release(); return nil })
	if err != nil {
		return err
	}
	defer s.release()

	nc := len(s.curves)
	stats := make([]incr.TickStats, nc)
	errs := make([]error, nc)
	var raw, ticks []float64
	var window []time.Duration
	before := cal.run()
	// flush calibrates the ticks timed since the last kernel run.
	flush := func() {
		after := cal.run()
		for _, d := range window {
			ticks = append(ticks, calibrated(d, (before+after)/2)/float64(time.Millisecond))
		}
		before, window = after, window[:0]
	}
	start := time.Now()
	for k := 0; time.Since(start) < cfg.seconds; k++ {
		moved := s.traj.step(k, s.cfg)
		t0 := time.Now()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for c := g; c < nc; c += 2 {
					stats[c], errs[c] = s.tickCurve(c)
				}
			}(g)
		}
		wg.Wait()
		d := time.Since(t0)
		raw = append(raw, ms(d))
		window = append(window, d)
		if len(window) == driftCalibrateEvery {
			flush()
		}
		checkTick(r, k, moved, stats, errs)
	}
	if len(window) > 0 {
		flush()
	}
	if err := s.checkFinal(nil, r); err != nil {
		return err
	}
	rss := peakRSSMiB()
	r.set("setup_s", setup)
	r.set("op_ms_p50", median(ticks))
	r.set("ops_per_s", 1000*float64(len(ticks))/sum(ticks))
	r.set("peak_rss_mib", rss)
	r.note("setup_s calibrated", setup, "s", setupRuns)
	r.note("tick_ms_p50", median(raw), "ms", len(raw))
	r.noteTail("tick_ms", "ms", raw, 1)
	r.note("tick_ms_p50 calibrated", median(ticks), "ms", len(ticks))
	r.note("peak_rss_mib", rss, "MiB", 1)
	r.note("fail_frac", float64(r.failed)/float64(r.attempted), "1", int(r.attempted))
	return nil
}

// traceDrift measures the incr layer: driftTracedTicks ticks, each
// curve's Tick and ACDMulti timed separately on one goroutine, then a
// fresh incr.NewState per curve on the final configuration (the
// rebuild cost the maintained state avoids, and the final check).
// Counts are per tick, summed over the four curves; moved particles
// are per tick, as the trajectory is the same for every curve.
func traceDrift(cfg config, r *report) error {
	s, err := newDriftSetup(cfg.seed)
	if err != nil {
		return err
	}
	defer s.release()
	tr := cfg.tr
	nc := len(s.curves)
	stats := make([]incr.TickStats, nc)
	errs := make([]error, nc)
	var moved, displaced, ownerMoves, touched, repartitions int
	root := tr.begin("drift")
	for k := 0; k < driftTracedTicks; k++ {
		m := s.traj.step(k, s.cfg)
		for c := range s.curves {
			tr.timed("incr.tick", func() { stats[c], errs[c] = s.states[c].Tick(s.cfg) })
			if errs[c] == nil {
				tr.timed("incr.acd", func() { s.states[c].ACDMulti(s.dts[c : c+1]) })
			}
			displaced += stats[c].Displaced
			ownerMoves += stats[c].OwnerMoves
			touched += stats[c].Retracted + stats[c].Readded
			if stats[c].Repartitioned {
				repartitions++
			}
		}
		moved += m
		checkTick(r, k, m, stats, errs)
	}
	if err := s.checkFinal(tr, r); err != nil {
		return err
	}
	tr.end(root)
	tot := layerTotals(tr.spans)
	perTick := func(name string) {
		r.set(name+"_ms", ms(tot[name].Wall)/driftTracedTicks)
		r.set(name+"_cpu_ms", ms(tot[name].CPU)/driftTracedTicks)
	}
	perTick("incr.tick")
	perTick("incr.acd")
	r.set("incr.rebuild_ms", ms(tot["incr.rebuild"].Wall))
	r.set("incr.rebuild_cpu_ms", ms(tot["incr.rebuild"].CPU))
	r.set("incr.moved", float64(moved)/driftTracedTicks)
	r.set("incr.displaced", float64(displaced)/driftTracedTicks)
	r.set("incr.owner_moves", float64(ownerMoves)/driftTracedTicks)
	r.set("incr.touched", float64(touched)/driftTracedTicks)
	r.set("incr.repartitions", float64(repartitions))
	if moved == 0 {
		return fmt.Errorf("the trajectory moved no particle in %d ticks", driftTracedTicks)
	}
	r.set("incr.touched_per_moved", float64(touched)/float64(nc*moved))
	checkAttribution(tr, r)
	return nil
}
