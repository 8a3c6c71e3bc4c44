package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
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
	outs := make([][]float64, p.Trials*nc) // per cell: NFI ACD per radius
	// Each radius induces its own near-field pairs, so a trial's build
	// records one plan per radius, and each cell replays them all
	// against its one labelling.
	opts := make([]fmmmodel.NFIOptions, len(radii))
	for i, radius := range radii {
		opts[i] = fmmmodel.NFIOptions{Radius: radius, Metric: geom.MetricChebyshev}
	}
	err := groupSweep(ctx, p.Workers, p.Trials, nc,
		func(sweep *obs.Span, trial, workers int) (*keynav.Set, error) {
			set, err := sampleSet(sweep, dist.Uniform, p, trial)
			if err != nil {
				return nil, err
			}
			for _, o := range opts {
				set.Plan(sweep, o.Spec(), workers)
			}
			return set, nil
		},
		func(sweep *obs.Span, cell int, set *keynav.Set, inner int) error {
			curve := curves[cell%nc]
			a, err := acd.Assign(sweep, set, curve, p.P())
			if err != nil {
				return err
			}
			topos := []topology.Topology{topology.NewTorus(p.ProcOrder, curve)}
			acds := make([]float64, len(radii))
			for i, o := range opts {
				o.Workers, o.Parent = inner, sweep
				acds[i] = fmmmodel.NFIMulti(a, topos, o)[0].ACD()
			}
			outs[cell] = acds
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
	var groups []pricedGroup
	for _, n := range sizes {
		q := p
		q.Particles = n
		if err := q.Validate(); err != nil {
			return SizeSweepResult{}, err
		}
		groups = append(groups, trialGroups(dist.Uniform, q)...)
	}
	nc := len(curves)
	outs, err := priceSweep(ctx, p.Workers, groups, nc, func(_, c int) (sfc.Curve, []topology.Topology, error) {
		return curves[c], []topology.Topology{topology.NewTorus(p.ProcOrder, curves[c])}, nil
	})
	if err != nil {
		return SizeSweepResult{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		i := cell / nc / p.Trials
		res.NFI[c][i] += o.nfi[0] / float64(p.Trials)
		res.FFI[c][i] += o.ffi[0] / float64(p.Trials)
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
	outs, err := priceSweep(ctx, p.Workers, trialGroups(dist.Uniform, p), nc, func(_, c int) (sfc.Curve, []topology.Topology, error) {
		return curves[c], []topology.Topology{
			topology.NewMesh(p.ProcOrder, curves[c]),
			topology.NewTorus(p.ProcOrder, curves[c]),
		}, nil
	})
	if err != nil {
		return MeshTorusResult{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		res.MeshNFI[c] += o.nfi[0] / float64(p.Trials)
		res.TorusNFI[c] += o.nfi[1] / float64(p.Trials)
		res.MeshFFI[c] += o.ffi[0] / float64(p.Trials)
		res.TorusFFI[c] += o.ffi[1] / float64(p.Trials)
	}
	return res, nil
}
