package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// RadiusSweepResult holds the §VI-C radius study: NFI ACD per curve as
// the near-field radius grows (torus, same curve both roles). The
// paper's observation: larger radii raise every curve's ACD but never
// change the curves' relative order.
type RadiusSweepResult struct {
	Radii  []int
	Curves []string
	// NFI[c][i] is the ACD of curve c at Radii[i].
	NFI [][]float64
}

// SeriesTable renders the sweep.
func (r RadiusSweepResult) SeriesTable() *tablefmt.SeriesTable {
	st := &tablefmt.SeriesTable{Title: "NFI ACD vs near-field radius (torus)", XLabel: "radius"}
	for _, x := range r.Radii {
		st.X = append(st.X, float64(x))
	}
	for c, name := range r.Curves {
		st.Series = append(st.Series, tablefmt.Series{Name: name, Y: r.NFI[c]})
	}
	return st
}

// RunRadiusSweep computes the NFI ACD for each radius in radii.
func RunRadiusSweep(ctx context.Context, p Params, radii []int) (RadiusSweepResult, error) {
	if err := p.Validate(); err != nil {
		return RadiusSweepResult{}, err
	}
	if len(radii) == 0 {
		return RadiusSweepResult{}, fmt.Errorf("experiments: no radii to sweep")
	}
	// The swept radii are not in Params, so Validate did not bound them.
	for _, r := range radii {
		if err := checkNearEvents(p.Particles, r, 2); err != nil {
			return RadiusSweepResult{}, err
		}
	}
	curves := sfc.All()
	res := RadiusSweepResult{
		Radii:  append([]int(nil), radii...),
		Curves: curveNames(curves),
		NFI:    zeroRect(len(curves), len(radii)),
	}
	nc := len(curves)
	groups := newGroupSlots(p.Trials, nc, func(trial int) (*keynav.Set, error) {
		return sampleSet(dist.Uniform, p, trial)
	})
	outs := make([][]float64, p.Trials*nc) // per cell: NFI ACD per radius
	pool := sweepPool(p.Workers, len(outs))
	inner := innerWorkers(p.Workers, pool)
	err := runCells(ctx, pool, len(outs), func(cell int) error {
		c := cell % nc
		trial := cell / nc
		set, err := groups.get(trial)
		if err != nil {
			return err
		}
		curve := curves[c]
		a, err := acd.Assign(set, curve, p.P())
		if err != nil {
			return err
		}
		// Each radius induces its own near-field pairs, so the set
		// holds one plan per radius, recorded by the trial's first cell
		// with the whole p.Workers budget; each cell replays them all
		// against its one labelling and prices them on the torus.
		topos := []topology.Topology{topology.NewTorus(p.ProcOrder, curve)}
		o := make([]float64, len(radii))
		for i, radius := range radii {
			opts := fmmmodel.NFIOptions{Radius: radius, Metric: geom.MetricChebyshev, Workers: inner}
			set.Plan(opts.Spec(), workerBudget(p.Workers))
			o[i] = fmmmodel.NFIMulti(a, topos, opts)[0].ACD()
		}
		outs[cell] = o
		return nil
	})
	if err != nil {
		return RadiusSweepResult{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		for i := range radii {
			res.NFI[c][i] += o[i]
		}
	}
	scaleMatrix(res.NFI, 1/float64(p.Trials))
	return res, nil
}

// SizeSweepResult holds the §VI-C input-size study: ACD per curve as
// the particle count grows at a fixed processor count.
type SizeSweepResult struct {
	Sizes  []int
	Curves []string
	NFI    [][]float64
	FFI    [][]float64
}

// SeriesTables renders the sweep panels.
func (r SizeSweepResult) SeriesTables() (nfi, ffi *tablefmt.SeriesTable) {
	mk := func(title string, cells [][]float64) *tablefmt.SeriesTable {
		st := &tablefmt.SeriesTable{Title: title, XLabel: "particles"}
		for _, x := range r.Sizes {
			st.X = append(st.X, float64(x))
		}
		for c, name := range r.Curves {
			st.Series = append(st.Series, tablefmt.Series{Name: name, Y: cells[c]})
		}
		return st
	}
	return mk("NFI ACD vs input size (torus)", r.NFI), mk("FFI ACD vs input size (torus)", r.FFI)
}

// RunSizeSweep computes NFI and FFI ACD for each particle count in
// sizes, holding Order, ProcOrder, and Radius fixed.
func RunSizeSweep(ctx context.Context, p Params, sizes []int) (SizeSweepResult, error) {
	if len(sizes) == 0 {
		return SizeSweepResult{}, fmt.Errorf("experiments: no sizes to sweep")
	}
	curves := sfc.All()
	res := SizeSweepResult{
		Sizes:  append([]int(nil), sizes...),
		Curves: curveNames(curves),
		NFI:    zeroRect(len(curves), len(sizes)),
		FFI:    zeroRect(len(curves), len(sizes)),
	}
	// Per-size params are validated up front so a bad size fails before
	// any cell runs.
	qs := make([]Params, len(sizes))
	for i, n := range sizes {
		q := p
		q.Particles = n
		if err := q.Validate(); err != nil {
			return SizeSweepResult{}, err
		}
		qs[i] = q
	}
	nc := len(curves)
	type cellOut struct{ nfi, ffi float64 }
	groups := newGroupSlots(len(sizes)*p.Trials, nc, func(g int) (*keynav.Set, error) {
		return sampleSet(dist.Uniform, qs[g/p.Trials], g%p.Trials)
	})
	outs := make([]cellOut, len(sizes)*p.Trials*nc)
	pool := sweepPool(p.Workers, len(outs))
	inner := innerWorkers(p.Workers, pool)
	err := runCells(ctx, pool, len(outs), func(cell int) error {
		c := cell % nc
		q := qs[cell/nc/p.Trials]
		set, err := groups.get(cell / nc)
		if err != nil {
			return err
		}
		curve := curves[c]
		a, err := acd.Assign(set, curve, q.P())
		if err != nil {
			return err
		}
		topos := []topology.Topology{topology.NewTorus(q.ProcOrder, curve)}
		nfi, ffi := priceCell(q, a, topos, inner)
		outs[cell] = cellOut{nfi: nfi[0].ACD(), ffi: ffi[0].Total().ACD()}
		return nil
	})
	if err != nil {
		return SizeSweepResult{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		i := cell / nc / p.Trials
		res.NFI[c][i] += o.nfi / float64(p.Trials)
		res.FFI[c][i] += o.ffi / float64(p.Trials)
	}
	return res, nil
}

// MeshTorusResult holds the §VI-B wrap-link ablation: per curve, the
// NFI and FFI ACD on a mesh versus a torus of the same size. The
// paper's observation: for the recursive curves the two are highly
// comparable, while row-major benefits markedly from the wrap links.
type MeshTorusResult struct {
	Curves []string
	// Columns: mesh NFI, torus NFI, mesh FFI, torus FFI.
	MeshNFI, TorusNFI, MeshFFI, TorusFFI []float64
}

// Matrix renders the ablation as a curves x {mesh,torus} table.
func (r MeshTorusResult) Matrix() *tablefmt.Matrix {
	m := &tablefmt.Matrix{
		Title:  "Mesh vs torus (wrap-link utility)",
		Corner: "SFC",
		Cols:   []string{"mesh NFI", "torus NFI", "mesh FFI", "torus FFI"},
		Rows:   r.Curves,
	}
	for i := range r.Curves {
		m.Cells = append(m.Cells, []float64{r.MeshNFI[i], r.TorusNFI[i], r.MeshFFI[i], r.TorusFFI[i]})
	}
	return m
}

// RunMeshTorus computes the ablation at the given parameters.
func RunMeshTorus(ctx context.Context, p Params) (MeshTorusResult, error) {
	if err := p.Validate(); err != nil {
		return MeshTorusResult{}, err
	}
	curves := sfc.All()
	res := MeshTorusResult{
		Curves:   curveNames(curves),
		MeshNFI:  make([]float64, len(curves)),
		TorusNFI: make([]float64, len(curves)),
		MeshFFI:  make([]float64, len(curves)),
		TorusFFI: make([]float64, len(curves)),
	}
	nc := len(curves)
	type cellOut struct{ meshNFI, torusNFI, meshFFI, torusFFI float64 }
	groups := newGroupSlots(p.Trials, nc, func(trial int) (*keynav.Set, error) {
		return sampleSet(dist.Uniform, p, trial)
	})
	outs := make([]cellOut, p.Trials*nc)
	pool := sweepPool(p.Workers, len(outs))
	inner := innerWorkers(p.Workers, pool)
	err := runCells(ctx, pool, len(outs), func(cell int) error {
		c := cell % nc
		trial := cell / nc
		set, err := groups.get(trial)
		if err != nil {
			return err
		}
		curve := curves[c]
		a, err := acd.Assign(set, curve, p.P())
		if err != nil {
			return err
		}
		topos := []topology.Topology{
			topology.NewMesh(p.ProcOrder, curve),
			topology.NewTorus(p.ProcOrder, curve),
		}
		nfi, ffi := priceCell(p, a, topos, inner)
		outs[cell] = cellOut{
			meshNFI:  nfi[0].ACD(),
			torusNFI: nfi[1].ACD(),
			meshFFI:  ffi[0].Total().ACD(),
			torusFFI: ffi[1].Total().ACD(),
		}
		return nil
	})
	if err != nil {
		return MeshTorusResult{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		res.MeshNFI[c] += o.meshNFI / float64(p.Trials)
		res.TorusNFI[c] += o.torusNFI / float64(p.Trials)
		res.MeshFFI[c] += o.meshFFI / float64(p.Trials)
		res.TorusFFI[c] += o.torusFFI / float64(p.Trials)
	}
	return res, nil
}
