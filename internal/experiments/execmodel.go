package experiments

import (
	"context"
	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/execmodel"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// ExecModelResult holds the ACD-validation study: per curve, the NFI
// ACD alongside the bulk-synchronous modeled makespan and total cost,
// so the correlation the ACD metric promises can be inspected
// directly.
type ExecModelResult struct {
	Curves []string
	// ACD is the plain near-field ACD.
	ACD []float64
	// Makespan is max over processors of alpha*sends + beta*hops +
	// gamma*work.
	Makespan []float64
	// MaxSends is the message count of the busiest processor.
	MaxSends []float64
}

// Matrix renders the study.
func (r ExecModelResult) Matrix() *tablefmt.Matrix {
	m := &tablefmt.Matrix{
		Title:  "ACD vs modeled execution time (NFI, torus)",
		Corner: "SFC",
		Cols:   []string{"ACD", "makespan", "max sends"},
		Rows:   r.Curves,
	}
	for i := range r.Curves {
		m.Cells = append(m.Cells, []float64{r.ACD[i], r.Makespan[i], r.MaxSends[i]})
	}
	return m
}

// RunExecModel computes ACD and modeled makespan per curve for a
// uniform input on a torus with the default cost parameters.
func RunExecModel(ctx context.Context, p Params) (ExecModelResult, error) {
	if err := p.Validate(); err != nil {
		return ExecModelResult{}, err
	}
	curves := sfc.All()
	n := len(curves)
	res := ExecModelResult{
		Curves:   curveNames(curves),
		ACD:      make([]float64, n),
		Makespan: make([]float64, n),
		MaxSends: make([]float64, n),
	}
	type cellOut struct {
		acd, makespan, maxSends float64
	}
	outs := make([]cellOut, p.Trials*n)
	err := groupSweep(ctx, p.Workers, p.Trials, n,
		func(sweep *obs.Span, trial, workers int) (*keynav.Set, error) {
			return nearSet(sweep, dist.Uniform, p, trial, workers)
		},
		func(sweep *obs.Span, cell int, set *keynav.Set, inner int) error {
			curve := curves[cell%n]
			a, err := acd.Assign(sweep, set, curve, p.P())
			if err != nil {
				return err
			}
			topo := topology.NewTorus(p.ProcOrder, curve)
			opts := nearOptions(p)
			opts.Workers, opts.Parent = inner, sweep
			tally := execmodel.CollectNFI(a, topo, opts)
			ms, err := tally.Makespan(execmodel.DefaultCost)
			if err != nil {
				return err
			}
			// The tally holds the whole near-field stream: every event is
			// one unit of work and carries its hops, so ΣHops/ΣWork is the
			// ACD.
			var maxSends, hops, work uint64
			for r, s := range tally.Sends {
				if s > maxSends {
					maxSends = s
				}
				hops += tally.Hops[r]
				work += tally.Work[r]
			}
			acdVal := 0.0
			if work > 0 {
				acdVal = float64(hops) / float64(work)
			}
			outs[cell] = cellOut{acd: acdVal, makespan: ms, maxSends: float64(maxSends)}
			return nil
		})
	if err != nil {
		return ExecModelResult{}, err
	}
	f := 1 / float64(p.Trials)
	for cell, o := range outs {
		c := cell % n
		res.ACD[c] += o.acd * f
		res.Makespan[c] += o.makespan * f
		res.MaxSends[c] += o.maxSends * f
	}
	return res, nil
}
