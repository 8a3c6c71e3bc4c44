package experiments

import (
	"context"
	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/keynav"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// Fig6Topologies lists the six network topologies of Figure 6 in the
// paper's order.
var Fig6Topologies = []string{"bus", "ring", "mesh", "torus", "quadtree", "hypercube"}

// Fig6Result holds the topology comparison of Figure 6: NFI and FFI
// ACD per {topology, SFC} pair, with the same curve used for both
// particle and processor ordering.
type Fig6Result struct {
	// Topologies are the row names.
	Topologies []string
	// Curves are the column names.
	Curves []string
	// NFI[t][c] and FFI[t][c] are the ACD values.
	NFI [][]float64
	FFI [][]float64
}

// Matrices renders the two panels of Figure 6.
func (f Fig6Result) Matrices() (nfi, ffi *tablefmt.Matrix) {
	mk := func(title string, cells [][]float64) *tablefmt.Matrix {
		return &tablefmt.Matrix{
			Title:      title,
			Corner:     "topology\\SFC",
			Cols:       f.Curves,
			Rows:       f.Topologies,
			Cells:      cells,
			MarkMinima: true,
		}
	}
	return mk("Figure 6(a): NFI ACD by topology", f.NFI),
		mk("Figure 6(b): FFI ACD by topology", f.FFI)
}

// RunFig6 reproduces Figure 6: uniformly distributed particles, the
// same SFC used for particle and processor ordering, ACD under each of
// the six topologies. The paper used 1,000,000 particles on 4096x4096
// with NFI radius 4 (and omitted bus/ring and row-major NFI bars from
// the plot because they dwarf the rest; we report them).
func RunFig6(ctx context.Context, p Params) (Fig6Result, error) {
	if err := p.Validate(); err != nil {
		return Fig6Result{}, err
	}
	curves := sfc.All()
	res := Fig6Result{
		Topologies: append([]string(nil), Fig6Topologies...),
		Curves:     curveNames(curves),
		NFI:        zeroRect(len(Fig6Topologies), len(curves)),
		FFI:        zeroRect(len(Fig6Topologies), len(curves)),
	}
	nc := len(curves)
	nt := len(Fig6Topologies)
	type cellOut struct {
		nfi, ffi []float64 // per topology
	}
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
		topos := make([]topology.Topology, nt)
		for t, name := range Fig6Topologies {
			topo, err := topology.New(name, p.P(), curve)
			if err != nil {
				return err
			}
			topos[t] = topo
		}
		nfiAccs, ffiAccs := priceCell(p, a, topos, inner)
		o := cellOut{nfi: make([]float64, nt), ffi: make([]float64, nt)}
		for t := range topos {
			o.nfi[t] = nfiAccs[t].ACD()
			o.ffi[t] = ffiAccs[t].Total().ACD()
		}
		outs[cell] = o
		return nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	for cell, o := range outs {
		c := cell % nc
		for t := 0; t < nt; t++ {
			res.NFI[t][c] += o.nfi[t]
			res.FFI[t][c] += o.ffi[t]
		}
	}
	scaleMatrix(res.NFI, 1/float64(p.Trials))
	scaleMatrix(res.FFI, 1/float64(p.Trials))
	return res, nil
}

func zeroRect(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
	}
	return m
}
