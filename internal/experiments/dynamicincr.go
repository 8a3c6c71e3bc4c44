package experiments

import (
	"context"
	"fmt"
	"math"

	"sfcacd/internal/geom"
	"sfcacd/internal/incr"
	"sfcacd/internal/nbody"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// DynamicIncrResult is the incremental time-stepped pipeline study: an
// n-body simulation drifts the particles a few percent of a cell per
// tick, and per curve an incr.State carries the SFC order, chunk
// assignment, and near-field ACD on the curve's torus across ticks
// instead of rebuilding them. Every reported value is a deterministic
// function of the particle trajectory alone, and every maintained ACD
// equals fresh pricing of its tick's cells
// (TestDynamicIncrMatchesFreshPricing).
type DynamicIncrResult struct {
	// Curves are the curve names.
	Curves []string
	// Ticks are the simulation tick indices reported (1-based; tick 0
	// is the initial build).
	Ticks []int
	// Moved[t] counts particles whose cell changed at tick t. The
	// trajectory is curve-independent, so one series serves all curves.
	Moved []int
	// ACD[c][t] is the near-field ACD on the curve's torus after tick
	// t, read from the state's maintained accumulator.
	ACD [][]float64
	// Gauge[c][t] is the drift gauge (fraction of particles whose
	// owning rank changed) fed to the repartition policy at tick t.
	Gauge [][]float64
	// Touched[c][t] counts the rank-pair events retracted plus
	// re-added at tick t — the delta mechanism's work measure.
	Touched [][]int
	// Repartitions[c] counts the ticks on which the policy decided to
	// repartition the curve's pipeline.
	Repartitions []int
}

// SeriesTables renders the per-tick ACD and drift-gauge series.
func (r DynamicIncrResult) SeriesTables() (acdT, gauge *tablefmt.SeriesTable) {
	mk := func(title string, cells [][]float64) *tablefmt.SeriesTable {
		st := &tablefmt.SeriesTable{Title: title, XLabel: "tick"}
		for _, s := range r.Ticks {
			st.X = append(st.X, float64(s))
		}
		for c, name := range r.Curves {
			st.Series = append(st.Series, tablefmt.Series{Name: name, Y: cells[c]})
		}
		return st
	}
	return mk("NFI ACD over n-body ticks, incrementally maintained", r.ACD),
		mk("ACD drift gauge (owner-churn fraction) per tick", r.Gauge)
}

// projectCells quantizes simulation positions back onto grid cells,
// keeping the one-particle-per-cell invariant: in identity order, a
// particle moves to its position's cell unless another particle
// already holds it this tick (then it keeps its old cell until the
// target frees up on a later tick). Deterministic given positions.
func projectCells(pos []complex128, cells []geom.Point, side uint32) []geom.Point {
	occ := make(map[uint64]bool, len(cells))
	for _, c := range cells {
		occ[geom.CellID(c, side)] = true
	}
	out := append([]geom.Point(nil), cells...)
	for i, z := range pos {
		x := uint32(real(z) * float64(side))
		y := uint32(imag(z) * float64(side))
		if x >= side {
			x = side - 1
		}
		if y >= side {
			y = side - 1
		}
		q := geom.Pt(x, y)
		if q == out[i] || occ[geom.CellID(q, side)] {
			continue
		}
		delete(occ, geom.CellID(out[i], side))
		occ[geom.CellID(q, side)] = true
		out[i] = q
	}
	return out
}

// dynamicIncrTicks is the number of ticks the registry's dynamicincr
// runs.
const dynamicIncrTicks = 12

// newDrift samples trial 0 of p, under parent, and returns its cells
// and a step function that advances the n-body simulation by one tick
// and returns the cells projectCells quantizes it onto. Particle speeds
// and the timestep are sized so a few percent of particles cross a cell
// boundary per tick — the regime the incremental machinery is built
// for.
func newDrift(parent *obs.Span, p Params) ([]geom.Point, func() ([]geom.Point, error), error) {
	cells, err := samplePoints(parent, p.sampler(), p, 0)
	if err != nil {
		return nil, nil, err
	}
	n := len(cells)
	side := geom.Side(p.Order)

	// Positions uniform within their sampled cell (centering them
	// instead would put every particle half a cell from the nearest
	// boundary and suppress crossings for dozens of ticks); equal
	// charges. Initial speeds are uniform in [0.5, 1.5) with uniform
	// headings, and the timestep makes a unit-speed particle cover 0.02
	// cells per tick, so a few percent of particles change cell each
	// tick — the displacement regime the delta maintenance targets.
	vr := rng.New(p.Seed ^ 0x1ACD)
	unit := func() float64 { return float64(vr.Uint32n(1<<24)) / float64(1<<24) }
	sys := nbody.System{Pos: make([]complex128, n), Q: make([]float64, n)}
	for i, c := range cells {
		sys.Pos[i] = complex((float64(c.X)+unit())/float64(side), (float64(c.Y)+unit())/float64(side))
		sys.Q[i] = 1.0 / float64(n)
	}
	sim, err := nbody.NewSimulator(sys, 0.02/float64(side))
	if err != nil {
		return nil, nil, err
	}
	for i := range sim.Vel {
		speed := 0.5 + unit()
		theta := 2 * math.Pi * unit()
		sim.Vel[i] = complex(speed*math.Cos(theta), speed*math.Sin(theta))
	}
	sim.FMM = nbody.FMMOptions{Terms: 6, Workers: p.Workers}
	at := cells
	step := func() ([]geom.Point, error) {
		if err := sim.Step(); err != nil {
			return nil, err
		}
		at = projectCells(sim.Sys.Pos, at, side)
		return at, nil
	}
	return cells, step, nil
}

// RunDynamicIncr runs `ticks` n-body timesteps (newDrift) over one
// maintained pipeline per curve and reports the ACD, drift gauge, delta
// work, and repartition counts. Only trial 0 of Params is used: trials
// average independent samples, but a drift study is one trajectory.
func RunDynamicIncr(ctx context.Context, p Params, ticks int) (DynamicIncrResult, error) {
	if err := p.Validate(); err != nil {
		return DynamicIncrResult{}, err
	}
	if ticks < 1 {
		return DynamicIncrResult{}, fmt.Errorf("experiments: need at least 1 tick")
	}
	cells, step, err := newDrift(obs.SpanFrom(ctx), p)
	if err != nil {
		return DynamicIncrResult{}, err
	}

	curves := sfc.All()
	nc := len(curves)
	res := DynamicIncrResult{
		Curves:       curveNames(curves),
		ACD:          zeroRect(nc, ticks),
		Gauge:        zeroRect(nc, ticks),
		Touched:      make([][]int, nc),
		Repartitions: make([]int, nc),
	}
	for t := 1; t <= ticks; t++ {
		res.Ticks = append(res.Ticks, t)
	}
	for c := range res.Touched {
		res.Touched[c] = make([]int, ticks)
	}

	states := make([]*incr.State, nc)
	tables := make([]*topology.DistanceTable, nc)
	if err := runCells(ctx, p.Workers, nc, func(sweep *obs.Span, c int) error {
		cfg := incr.Config{
			Curve:  curves[c],
			Order:  p.Order,
			P:      p.P(),
			Radius: p.Radius,
			Metric: geom.MetricChebyshev,
			Parent: sweep,
		}
		s, err := incr.NewState(cfg, cells)
		if err != nil {
			return err
		}
		states[c] = s
		tables[c] = topology.NewDistanceTable(topology.NewTorus(p.ProcOrder, curves[c]))
		return nil
	}); err != nil {
		return DynamicIncrResult{}, err
	}

	// Ticks are inherently sequential; within a tick the curves are
	// independent cells reading the same frozen cell configuration.
	moved := make([]int, nc)
	for tick := 0; tick < ticks; tick++ {
		if cells, err = step(); err != nil {
			return DynamicIncrResult{}, err
		}
		if err := runCells(ctx, p.Workers, nc, func(_ *obs.Span, c int) error {
			st, err := states[c].Tick(cells)
			if err != nil {
				return err
			}
			moved[c] = st.Moved
			res.ACD[c][tick] = states[c].ACD(tables[c]).ACD()
			res.Gauge[c][tick] = st.Gauge
			res.Touched[c][tick] = st.Retracted + st.Readded
			return nil
		}); err != nil {
			return DynamicIncrResult{}, err
		}
		// Moved is a property of the trajectory; every curve must agree.
		for c := 1; c < nc; c++ {
			if moved[c] != moved[0] {
				return DynamicIncrResult{}, fmt.Errorf("experiments: curve %s moved %d particles, %s moved %d",
					res.Curves[c], moved[c], res.Curves[0], moved[0])
			}
		}
		res.Moved = append(res.Moved, moved[0])
	}
	for c := range states {
		res.Repartitions[c] = states[c].Repartitions()
	}
	return res, nil
}
