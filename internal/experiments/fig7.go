package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
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
	type cellOut struct{ nfi, ffi float64 }
	// A trial's cells share its particle set and its plan, across every
	// curve and processor count.
	outs := make([]cellOut, p.Trials*nc*no)
	pool := sweepPool(p.Workers, len(outs))
	inner := innerWorkers(p.Workers, pool)
	groups := newGroupSlots(p.Trials, nc*no, func(sweep *obs.Span, trial int) (*keynav.Set, error) {
		return pricedSet(sweep, dist.Uniform, p, trial, inner)
	})
	err := runCells(ctx, pool, len(outs), func(sweep *obs.Span, cell int) error {
		i := cell % no
		c := (cell / no) % nc
		trial := cell / (no * nc)
		set, err := groups.get(sweep, trial)
		if err != nil {
			return err
		}
		curve := curves[c]
		po := procOrders[i]
		procs := 1 << (2 * po)
		a, err := acd.Assign(sweep, set, curve, procs)
		if err != nil {
			return err
		}
		// One torus per step: too few for a torus group, so the replay
		// prices every event through the torus's own kernel.
		topos := []topology.Topology{topology.NewTorus(po, curve)}
		nfi, ffi := priceCell(sweep, p, a, topos, inner)
		outs[cell] = cellOut{nfi: nfi[0].ACD(), ffi: ffi[0].Total().ACD()}
		return nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	for cell, o := range outs {
		i := cell % no
		c := (cell / no) % nc
		res.NFI[c][i] += o.nfi
		res.FFI[c][i] += o.ffi
	}
	scaleMatrix(res.NFI, 1/float64(p.Trials))
	scaleMatrix(res.FFI, 1/float64(p.Trials))
	return res, nil
}
