package experiments

import (
	"context"

	"sfcacd/internal/dist"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// Table12Result holds, for one input distribution, the 4x4 particle x
// processor SFC combination matrices of Tables I (NFI) and II (FFI).
// Rows are processor-order curves, columns particle-order curves, in
// the paper's order (Hilbert, Z, Gray, Row major).
type Table12Result struct {
	// Distribution names the input distribution.
	Distribution string
	// Curves are the curve names indexing both matrix dimensions.
	Curves []string
	// NFI[r][c] is the near-field ACD with processor order r and
	// particle order c.
	NFI [][]float64
	// FFI[r][c] is the far-field ACD (interpolation + anterpolation +
	// interaction list).
	FFI [][]float64
}

// Matrices renders the result as the paper's two tables.
func (t Table12Result) Matrices() (nfi, ffi *tablefmt.Matrix) {
	mk := func(title string, cells [][]float64) *tablefmt.Matrix {
		return &tablefmt.Matrix{
			Title:      title,
			Corner:     "proc\\particle",
			Cols:       t.Curves,
			Rows:       t.Curves,
			Cells:      cells,
			MarkMinima: true,
		}
	}
	nfi = mk("Table I (NFI), "+t.Distribution+" distribution", t.NFI)
	ffi = mk("Table II (FFI), "+t.Distribution+" distribution", t.FFI)
	return nfi, ffi
}

// RunTable12 reproduces Tables I and II: for every input distribution
// and every particle-order x processor-order SFC pair, the NFI and FFI
// ACD on a torus of 4^ProcOrder processors, averaged over Trials. The
// full distribution x trial x particle-curve space runs as one sweep.
func RunTable12(ctx context.Context, p Params) ([]Table12Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	curves := sfc.All()
	topos := torusPerCurve(p, curves)
	samplers := dist.All()
	nc := len(curves)

	// Cell (d, trial, pc) -> index (d*Trials+trial)*nc + pc; the trial
	// group (d, trial) shares one sampled particle set and its plan.
	var groups []pricedGroup
	for _, s := range samplers {
		groups = append(groups, trialGroups(s, p)...)
	}
	outs, err := priceSweep(ctx, p.Workers, groups, nc, func(_, pc int) (sfc.Curve, []topology.Topology, error) {
		return curves[pc], topos, nil
	})
	if err != nil {
		return nil, err
	}

	// Reduce in cell-index order: float accumulation order matches the
	// old serial loops exactly, so results are worker-count-invariant.
	var out []Table12Result
	for d := range samplers {
		res := Table12Result{
			Distribution: samplers[d].Name(),
			Curves:       curveNames(curves),
			NFI:          zeroRect(nc, nc),
			FFI:          zeroRect(nc, nc),
		}
		for trial := 0; trial < p.Trials; trial++ {
			for pc := 0; pc < nc; pc++ {
				o := outs[(d*p.Trials+trial)*nc+pc]
				for proc := range curves {
					res.NFI[proc][pc] += o.nfi[proc]
					res.FFI[proc][pc] += o.ffi[proc]
				}
			}
		}
		scaleMatrix(res.NFI, 1/float64(p.Trials))
		scaleMatrix(res.FFI, 1/float64(p.Trials))
		out = append(out, res)
	}
	return out, nil
}

func scaleMatrix(m [][]float64, f float64) {
	for _, row := range m {
		for i := range row {
			row[i] *= f
		}
	}
}
