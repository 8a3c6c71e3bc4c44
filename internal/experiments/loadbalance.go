package experiments

import (
	"context"
	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/partition"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// LoadBalanceResult holds the Aluru-Sevilgen-style load balancing
// study (the paper's reference [4]): for a skewed input, SFC chunks of
// equal particle count versus equal near-field work, comparing the
// work imbalance (max/mean per-processor interaction count) and the
// resulting NFI ACD per curve.
type LoadBalanceResult struct {
	Curves []string
	// CountImbalance and WorkImbalance are the max/mean per-rank work
	// factors of the two policies (1 is perfect).
	CountImbalance, WorkImbalance []float64
	// CountACD and WorkACD are the NFI ACD of the two policies.
	CountACD, WorkACD []float64
}

// Matrix renders the study.
func (r LoadBalanceResult) Matrix() *tablefmt.Matrix {
	m := &tablefmt.Matrix{
		Title:  "SFC load balancing: equal-count vs equal-work chunks (exponential input)",
		Corner: "SFC",
		Cols:   []string{"count imbalance", "work imbalance", "count ACD", "work ACD"},
		Rows:   r.Curves,
	}
	for i := range r.Curves {
		m.Cells = append(m.Cells, []float64{
			r.CountImbalance[i], r.WorkImbalance[i], r.CountACD[i], r.WorkACD[i],
		})
	}
	return m
}

// RunLoadBalance measures both chunking policies on an exponential
// (skewed) input over a torus. Per-particle work is its near-field
// neighbor count — the direct-interaction cost the FMM pays per
// particle.
func RunLoadBalance(ctx context.Context, p Params) (LoadBalanceResult, error) {
	if err := p.Validate(); err != nil {
		return LoadBalanceResult{}, err
	}
	curves := sfc.All()
	n := len(curves)
	res := LoadBalanceResult{
		Curves:         curveNames(curves),
		CountImbalance: make([]float64, n),
		WorkImbalance:  make([]float64, n),
		CountACD:       make([]float64, n),
		WorkACD:        make([]float64, n),
	}
	type cellOut struct {
		countACD, workACD, countImb, workImb float64
	}
	outs := make([]cellOut, p.Trials*n)
	// A group is a trial's set and its particles' near-field work, which
	// does not depend on the curve.
	type group struct {
		set  *keynav.Set
		work []float64
	}
	err := groupSweep(ctx, p.Workers, p.Trials, n,
		func(sweep *obs.Span, trial, workers int) (group, error) {
			set, err := sampleSet(sweep, dist.Exponential, p, trial)
			if err != nil {
				return group{}, err
			}
			return group{set, nearDegrees(sweep, set, p.Radius, workers)}, nil
		},
		func(sweep *obs.Span, cell int, g group, inner int) error {
			curve := curves[cell%n]
			set, work := g.set, g.work
			// Both policies label the trial's set; perm lists its particles
			// along the curve, where the chunks are consecutive.
			perm := sfc.SortPoints(curve, p.Order, set.Points())
			curveWork := make([]float64, len(perm))
			for i, j := range perm {
				curveWork[i] = work[j]
			}
			byCurve, err := partition.WeightedChunks(curveWork, p.P())
			if err != nil {
				return err
			}
			countRanks, workRanks := make([]int32, len(perm)), make([]int32, len(perm))
			for i, j := range perm {
				countRanks[j] = int32(partition.ChunkOf(i, len(perm), p.P()))
				workRanks[j] = byCurve[i]
			}
			count, err := acd.FromOwners(sweep, set, countRanks, p.P())
			if err != nil {
				return err
			}
			weighted, err := acd.FromOwners(sweep, set, workRanks, p.P())
			if err != nil {
				return err
			}
			topos := []topology.Topology{topology.NewTorus(p.ProcOrder, curve)}
			opts := fmmmodel.NFIOptions{Radius: p.Radius, Metric: geom.MetricChebyshev, Workers: inner, Parent: sweep}
			// Per-rank loads are sums of integer degrees, exact in any
			// order, so the set order serves as well as the curve order.
			outs[cell] = cellOut{
				countACD: fmmmodel.NFIMulti(count, topos, opts)[0].ACD(),
				workACD:  fmmmodel.NFIMulti(weighted, topos, opts)[0].ACD(),
				countImb: partition.Imbalance(partition.ChunkWeights(work, countRanks, p.P())),
				workImb:  partition.Imbalance(partition.ChunkWeights(work, workRanks, p.P())),
			}
			return nil
		})
	if err != nil {
		return LoadBalanceResult{}, err
	}
	f := 1 / float64(p.Trials)
	for cell, o := range outs {
		c := cell % n
		res.CountACD[c] += o.countACD * f
		res.WorkACD[c] += o.workACD * f
		res.CountImbalance[c] += o.countImb * f
		res.WorkImbalance[c] += o.workImb * f
	}
	return res, nil
}

// nearDegrees returns each of the set's particles' near-field work, in
// the set's input order: the number of occupied cells within Chebyshev
// radius of it. Every pair of the set's near plan is one neighbor of
// each endpoint (the neighborhood excludes the cell itself), so the
// plan, recorded here on first use with up to workers goroutines under
// parent, holds the degrees without a probe.
func nearDegrees(parent *obs.Span, set *keynav.Set, radius, workers int) []float64 {
	deg := make([]float64, set.N()) // by finest slab position
	for _, chunk := range set.Plan(parent, keynav.Spec{Radius: radius, Metric: geom.MetricChebyshev}, workers).Near(radius, geom.MetricChebyshev) {
		for _, pr := range chunk {
			deg[pr.A]++
			deg[pr.B]++
		}
	}
	work := make([]float64, set.N())
	for i := range work {
		work[i] = deg[set.Pos(i)]
	}
	return work
}
