package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom3"
	"sfcacd/internal/model3d"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// ThreeDResult holds the 3D validation study (the paper's future-work
// item ii): NFI and FFI ACD per 3D curve on a 3D torus, plus the 3D
// ANNS, mirroring the 2D methodology on an octree decomposition.
type ThreeDResult struct {
	// Curves are the 3D curve names.
	Curves []string
	// NFI, FFI are ACD values per curve (same curve both roles).
	NFI, FFI []float64
	// ANNS is the 3D average nearest neighbor stretch (radius 1) per
	// curve, computed on the full grid of ANNSOrder.
	ANNS []float64
	// ANNSOrder is the resolution used for the ANNS column.
	ANNSOrder uint
}

// Matrix renders the study.
func (r ThreeDResult) Matrix() *tablefmt.Matrix {
	m := &tablefmt.Matrix{
		Title:  "3D validation: ACD on a 3D torus and 3D ANNS",
		Corner: "3D curve",
		Cols:   []string{"NFI ACD", "FFI ACD", fmt.Sprintf("ANNS (2^%d grid)", r.ANNSOrder)},
		Rows:   r.Curves,
	}
	for i := range r.Curves {
		m.Cells = append(m.Cells, []float64{r.NFI[i], r.FFI[i], r.ANNS[i]})
	}
	return m
}

// ThreeDParams configures the 3D study.
type ThreeDParams struct {
	// Particles is the input size.
	Particles int
	// Order is the cube resolution order.
	Order uint
	// ProcOrder fixes p = 8^ProcOrder on a 2^ProcOrder-sided torus.
	ProcOrder uint
	// Radius is the near-field radius.
	Radius int
	// ANNSOrder is the (small) grid order for the full-grid ANNS
	// column.
	ANNSOrder uint
	// Trials and Seed as in Params.
	Trials int
	Seed   uint64
}

// ThreeDDefault is a laptop-scale default for the 3D study.
var ThreeDDefault = ThreeDParams{
	Particles: 20000,
	Order:     6, // 64^3 cells
	ProcOrder: 2, // 64 processors on a 4x4x4 torus
	Radius:    1,
	ANNSOrder: 4, // 16^3 full grid
	Trials:    1,
	Seed:      2013,
}

// Validate checks the 3D study's parameters, including the near-field
// bound: particles x ((2r+1)^3 - 1) events at most maxNearEvents.
func (p ThreeDParams) Validate() error {
	if p.Particles < 1 || p.Trials < 1 {
		return fmt.Errorf("experiments: bad 3D params %+v", p)
	}
	if uint64(p.Particles) > geom3.Cells(p.Order) {
		return fmt.Errorf("experiments: %d particles exceed %d cells", p.Particles, geom3.Cells(p.Order))
	}
	return checkNearEvents(p.Particles, p.Radius, 3)
}

// RunThreeD runs the 3D validation: uniform particles ordered by each
// 3D curve, distributed over a 3D torus placed with the same curve.
// workers caps the sweep pool (0 means GOMAXPROCS); it is a separate
// argument so ThreeDParams' JSON encoding (recorded in run manifests
// and cache keys) stays purely scientific — it never changes results.
func RunThreeD(ctx context.Context, p ThreeDParams, workers int) (ThreeDResult, error) {
	if err := p.Validate(); err != nil {
		return ThreeDResult{}, err
	}
	curves := sfc.AllND(3)
	nc := len(curves)
	res := ThreeDResult{
		ANNSOrder: p.ANNSOrder,
		NFI:       make([]float64, nc),
		FFI:       make([]float64, nc),
		ANNS:      make([]float64, nc),
	}
	for _, c := range curves {
		res.Curves = append(res.Curves, c.Name())
	}
	procs := 1 << (3 * p.ProcOrder)
	type cellOut struct{ nfi, ffi float64 }
	groups := newGroupSlots(p.Trials, nc, func(trial int) ([]geom3.Point3, error) {
		defer obs.StartSpan("sampling").End()
		return dist.SampleUnique3(dist.Uniform3, rng.New(trialSeed(p.Seed, trial)), p.Order, p.Particles)
	})
	outs := make([]cellOut, p.Trials*nc)
	pool := sweepPool(workers, len(outs))
	inner := innerWorkers(workers, pool)
	err := runCells(ctx, pool, len(outs), func(cell int) error {
		c := cell % nc
		trial := cell / nc
		pts, err := groups.get(trial)
		if err != nil {
			return err
		}
		curve := curves[c]
		a, err := model3d.Assign(pts, curve, p.Order, procs)
		if err != nil {
			return err
		}
		torus := topology.NewTorus3D(p.ProcOrder, curve)
		nfi := model3d.NFI(a, torus, model3d.NFIOptions{Radius: p.Radius, Workers: inner})
		ffi := model3d.FFI(a, torus, inner)
		outs[cell] = cellOut{nfi: nfi.ACD(), ffi: ffi.Total().ACD()}
		return nil
	})
	if err != nil {
		return ThreeDResult{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		res.NFI[c] += o.nfi / float64(p.Trials)
		res.FFI[c] += o.ffi / float64(p.Trials)
	}
	// The full-grid ANNS column, one cell per curve.
	if err := runCells(ctx, sweepPool(workers, nc), nc, func(c int) error {
		mean, _ := model3d.ANNS3D(curves[c], p.ANNSOrder, 1)
		res.ANNS[c] = mean
		return nil
	}); err != nil {
		return ThreeDResult{}, err
	}
	return res, nil
}
