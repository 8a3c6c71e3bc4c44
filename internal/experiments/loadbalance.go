package experiments

import (
	"context"
	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
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
	groups := make([]shared[[]geom.Point], p.Trials)
	outs := make([]cellOut, p.Trials*n)
	pool := sweepPool(p.Workers, len(outs))
	inner := innerWorkers(p.Workers, pool)
	err := runCells(ctx, pool, len(outs), func(cell int) error {
		c := cell % n
		trial := cell / n
		pts, err := groups[trial].get(func() ([]geom.Point, error) {
			return samplePoints(dist.Exponential, p, trial)
		})
		if err != nil {
			return err
		}
		curve := curves[c]
		// Count-balanced baseline.
		count, err := acd.Assign(pts, curve, p.Order, p.P())
		if err != nil {
			return err
		}
		// Per-particle work in curve order: near-field neighbor count,
		// probed on the key-space index directly (Assignment.RankAt
		// would take its lock on every probe).
		ix := count.KeyIndex()
		work := make([]float64, count.N())
		for i, particle := range count.Particles {
			deg := 0
			geom.VisitNeighborhood(particle, p.Radius, geom.MetricChebyshev, count.Side(),
				func(q geom.Point) {
					if ix.RankAt(q) >= 0 {
						deg++
					}
				})
			work[i] = float64(deg)
		}
		ranks, err := partition.WeightedChunks(work, p.P())
		if err != nil {
			return err
		}
		weighted, err := acd.FromOwners(count.Particles, ranks, p.Order, p.P())
		if err != nil {
			return err
		}
		topos := []topology.Topology{topology.NewTorus(p.ProcOrder, curve)}
		opts := fmmmodel.NFIOptions{Radius: p.Radius, Metric: geom.MetricChebyshev, Workers: inner}
		o := cellOut{
			countACD: fmmmodel.NFIMulti(count, topos, opts)[0].ACD(),
			workACD:  fmmmodel.NFIMulti(weighted, topos, opts)[0].ACD(),
			countImb: partition.Imbalance(partition.ChunkWeights(work, count.Ranks, p.P())),
			workImb:  partition.Imbalance(partition.ChunkWeights(work, ranks, p.P())),
		}
		weighted.Release()
		count.Release()
		outs[cell] = o
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
