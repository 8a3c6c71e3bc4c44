package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/partition"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// DynamicResult holds the timestep study behind the paper's §VI-A
// remark that "there is no incentive to shift the ordering of
// particles between FMM iterations to reflect the dynamically changing
// particle distribution profile": particles drift between timesteps,
// and the NFI ACD is tracked under two policies — keeping the initial
// assignment (static) versus re-sorting and re-chunking every step
// (reorder).
type DynamicResult struct {
	// Curves are the curve names.
	Curves []string
	// Steps are the timestep indices reported.
	Steps []int
	// Static[c][t] is the ACD at step t when the step-0 assignment is
	// kept.
	Static [][]float64
	// Reorder[c][t] is the ACD when particles are reordered each step.
	Reorder [][]float64
}

// SeriesTables renders the two policies.
func (r DynamicResult) SeriesTables() (static, reorder *tablefmt.SeriesTable) {
	mk := func(title string, cells [][]float64) *tablefmt.SeriesTable {
		st := &tablefmt.SeriesTable{Title: title, XLabel: "step"}
		for _, s := range r.Steps {
			st.X = append(st.X, float64(s))
		}
		for c, name := range r.Curves {
			st.Series = append(st.Series, tablefmt.Series{Name: name, Y: cells[c]})
		}
		return st
	}
	return mk("NFI ACD over timesteps, static assignment", r.Static),
		mk("NFI ACD over timesteps, reordered each step", r.Reorder)
}

// drift moves every particle one random-walk step (each coordinate
// +-1 or 0), skipping moves that leave the grid or collide with an
// occupied cell. It mutates pts in place, preserving uniqueness.
func drift(pts []geom.Point, order uint, r *rng.Rand) {
	side := geom.Side(order)
	occupied := make(map[uint64]bool, len(pts))
	for _, p := range pts {
		occupied[geom.CellID(p, side)] = true
	}
	for i, p := range pts {
		dx := int(r.Uint32n(3)) - 1
		dy := int(r.Uint32n(3)) - 1
		nx, ny := int(p.X)+dx, int(p.Y)+dy
		if (dx == 0 && dy == 0) || !geom.InBounds(nx, ny, side) {
			continue
		}
		q := geom.Pt(uint32(nx), uint32(ny))
		if occupied[geom.CellID(q, side)] {
			continue
		}
		delete(occupied, geom.CellID(p, side))
		occupied[geom.CellID(q, side)] = true
		pts[i] = q
	}
}

// RunDynamic simulates `steps` drift timesteps and reports the NFI ACD
// per curve under the static and reorder policies on a torus.
func RunDynamic(ctx context.Context, p Params, steps int) (DynamicResult, error) {
	if err := p.Validate(); err != nil {
		return DynamicResult{}, err
	}
	if steps < 1 {
		return DynamicResult{}, fmt.Errorf("experiments: need at least 1 step")
	}
	curves := sfc.All()
	res := DynamicResult{
		Curves:  curveNames(curves),
		Static:  zeroRect(len(curves), steps+1),
		Reorder: zeroRect(len(curves), steps+1),
	}
	for s := 0; s <= steps; s++ {
		res.Steps = append(res.Steps, s)
	}
	root := obs.SpanFrom(ctx)
	pts, err := samplePoints(root, p.sampler(), p, 0)
	if err != nil {
		return DynamicResult{}, err
	}
	driftRand := rng.New(p.Seed ^ 0xD1F7)
	nc := len(curves)
	inner := innerWorkers(p.Workers, sweepPool(p.Workers, nc))
	// Remember each particle's initial owner per curve, one sweep cell
	// per curve. The particle identity is its index in pts; Assign
	// reorders, so map initial ranks back to input order through the
	// curve sort.
	initialRanks := make([][]int32, nc)
	if err := runCells(ctx, p.Workers, nc, func(_ *obs.Span, c int) error {
		perm := sfc.SortPoints(curves[c], p.Order, pts)
		ranks := make([]int32, len(pts))
		for sorted, orig := range perm {
			ranks[orig] = int32(partition.ChunkOf(sorted, len(pts), p.P()))
		}
		initialRanks[c] = ranks
		return nil
	}); err != nil {
		return DynamicResult{}, err
	}
	// Steps are inherently sequential (each drifts the previous step's
	// positions), but within a step the curves are independent cells
	// reading the same frozen positions.
	opts := fmmmodel.NFIOptions{Radius: p.Radius, Metric: geom.MetricChebyshev, Workers: inner}
	for step := 0; step <= steps; step++ {
		if step > 0 {
			drift(pts, p.Order, driftRand)
		}
		// One skeleton per step: both policies of every curve label it,
		// and its near plan is recorded once, with the whole budget.
		set, err := keynav.NewSet(root, p.Order, pts)
		if err != nil {
			return DynamicResult{}, err
		}
		set.Plan(root, opts.Spec(), workerBudget(p.Workers))
		if err := runCells(ctx, p.Workers, nc, func(sweep *obs.Span, c int) error {
			topos := []topology.Topology{topology.NewTorus(p.ProcOrder, curves[c])}
			opts := opts
			opts.Parent = sweep
			// Static policy: initial owners, current positions.
			static, err := acd.FromOwners(sweep, set, initialRanks[c], p.P())
			if err != nil {
				return err
			}
			res.Static[c][step] = fmmmodel.NFIMulti(static, topos, opts)[0].ACD()
			// Reorder policy: fresh assignment from current positions.
			fresh, err := acd.Assign(sweep, set, curves[c], p.P())
			if err != nil {
				return err
			}
			res.Reorder[c][step] = fmmmodel.NFIMulti(fresh, topos, opts)[0].ACD()
			return nil
		}); err != nil {
			return DynamicResult{}, err
		}
	}
	return res, nil
}
