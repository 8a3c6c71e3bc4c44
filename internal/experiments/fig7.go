package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/dist"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// Fig7Result holds the processor-count sweep of Figure 7 on a torus:
// ACD as a function of p, per curve (same curve for particle and
// processor order).
type Fig7Result struct {
	// ProcCounts are the swept processor counts (powers of 4).
	ProcCounts []int
	// Curves are the curve names.
	Curves []string
	// NFI[c][i] and FFI[c][i] are the ACD values of curve c at
	// ProcCounts[i].
	NFI [][]float64
	FFI [][]float64
}

// SeriesTables renders the two panels of Figure 7.
func (f Fig7Result) SeriesTables() (nfi, ffi *tablefmt.SeriesTable) {
	mk := func(title string, cells [][]float64) *tablefmt.SeriesTable {
		st := &tablefmt.SeriesTable{Title: title, XLabel: "processors"}
		for _, p := range f.ProcCounts {
			st.X = append(st.X, float64(p))
		}
		for c, name := range f.Curves {
			st.Series = append(st.Series, tablefmt.Series{Name: name, Y: cells[c]})
		}
		return st
	}
	return mk("Figure 7(a): NFI ACD vs processor count (torus)", f.NFI),
		mk("Figure 7(b): FFI ACD vs processor count (torus)", f.FFI)
}

// RunFig7 reproduces Figure 7: a fixed uniform input, the torus
// topology, and the processor count swept over 4^o for o in
// procOrders. The paper sweeps roughly 1,024 through 65,536 processors
// with 1,000,000 particles.
func RunFig7(ctx context.Context, p Params, procOrders []uint) (Fig7Result, error) {
	if err := p.Validate(); err != nil {
		return Fig7Result{}, err
	}
	if len(procOrders) == 0 {
		return Fig7Result{}, fmt.Errorf("experiments: no processor orders to sweep")
	}
	curves := sfc.All()
	res := Fig7Result{
		Curves: curveNames(curves),
		NFI:    zeroRect(len(curves), len(procOrders)),
		FFI:    zeroRect(len(curves), len(procOrders)),
	}
	for _, o := range procOrders {
		res.ProcCounts = append(res.ProcCounts, 1<<(2*o))
	}
	nc := len(curves)
	no := len(procOrders)
	// A trial's cells share its particle set and its plan, across every
	// curve and processor count.
	outs, err := priceSweep(ctx, p.Workers, trialGroups(dist.Uniform, p), nc*no, func(_, c int) (sfc.Curve, []topology.Topology, error) {
		curve := curves[c/no]
		// One torus per step: too few for a torus group, so the replay
		// prices every event through the torus's own kernel.
		return curve, []topology.Topology{topology.NewTorus(procOrders[c%no], curve)}, nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	for cell, o := range outs {
		i := cell % no
		c := (cell / no) % nc
		res.NFI[c][i] += o.nfi[0]
		res.FFI[c][i] += o.ffi[0]
	}
	scaleMatrix(res.NFI, 1/float64(p.Trials))
	scaleMatrix(res.FFI, 1/float64(p.Trials))
	return res, nil
}
