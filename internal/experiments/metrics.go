package experiments

import (
	"context"
	"sfcacd/internal/acd"
	"sfcacd/internal/anns"
	"sfcacd/internal/clustering"
	"sfcacd/internal/dist"
	"sfcacd/internal/keynav"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// MetricsResult is the metric landscape of the paper in one table: for
// each curve, every proximity metric discussed (ANNS, max stretch,
// all-pairs stretch, clustering) next to the application-aware ACD
// (NFI and FFI on a torus). The table makes the paper's motivation
// visible at a glance: the application-independent metrics disagree
// about the curves, so an application model is needed.
type MetricsResult struct {
	Curves []string
	// Application-independent metrics at ANNSOrder.
	ANNS, MaxStretch, AllPairs, Clusters []float64
	// Application-aware ACD at the Params scale.
	NFI, FFI []float64
}

// Matrix renders the comparison.
func (r MetricsResult) Matrix() *tablefmt.Matrix {
	m := &tablefmt.Matrix{
		Title:  "Metric landscape: proximity metrics vs application ACD",
		Corner: "SFC",
		Cols:   []string{"ANNS", "max stretch", "all-pairs", "clusters", "NFI ACD", "FFI ACD"},
		Rows:   r.Curves,
		// Minima markers make the disagreement visible: different
		// metrics crown different curves.
		MarkMinima: true,
	}
	for i := range r.Curves {
		m.Cells = append(m.Cells, []float64{
			r.ANNS[i], r.MaxStretch[i], r.AllPairs[i], r.Clusters[i], r.NFI[i], r.FFI[i],
		})
	}
	return m
}

// MetricsConfig parameterizes the landscape study.
type MetricsConfig struct {
	// Params drives the ACD columns.
	Params Params
	// MetricOrder is the grid order for the application-independent
	// metrics (full-grid computations).
	MetricOrder uint
	// QuerySide and QueryTrials drive the clustering column.
	QuerySide   uint32
	QueryTrials int
}

// RunMetrics computes the landscape.
func RunMetrics(ctx context.Context, cfg MetricsConfig) (MetricsResult, error) {
	if err := cfg.Params.Validate(); err != nil {
		return MetricsResult{}, err
	}
	if cfg.MetricOrder < 1 || cfg.MetricOrder > 10 || cfg.QueryTrials < 1 {
		return MetricsResult{}, errBadMetricsConfig
	}
	curves := sfc.All()
	n := len(curves)
	res := MetricsResult{
		Curves:     curveNames(curves),
		ANNS:       make([]float64, n),
		MaxStretch: make([]float64, n),
		AllPairs:   make([]float64, n),
		Clusters:   make([]float64, n),
		NFI:        make([]float64, n),
		FFI:        make([]float64, n),
	}
	// Sweep 1: the application-independent metric columns, one cell per
	// curve (each slot is written exactly once, so no reduction).
	if err := runCells(ctx, sweepPool(cfg.Params.Workers, n), n, func(c int) error {
		curve := curves[c]
		res.ANNS[c] = anns.Stretch(curve, cfg.MetricOrder, anns.Options{Radius: 1}).Mean
		res.MaxStretch[c] = anns.MaxStretch(curve, cfg.MetricOrder, anns.Options{Radius: 1})
		res.AllPairs[c] = anns.AllPairsStretch(curve, cfg.MetricOrder, 20000,
			rng.New(cfg.Params.Seed^uint64(c))).Mean
		res.Clusters[c] = clustering.AverageClusters(curve, cfg.MetricOrder, cfg.QuerySide,
			cfg.QueryTrials, rng.New(cfg.Params.Seed+uint64(c)))
		return nil
	}); err != nil {
		return MetricsResult{}, err
	}
	// Sweep 2: the ACD columns over trial x curve cells.
	type cellOut struct{ nfi, ffi float64 }
	groups := newGroupSlots(cfg.Params.Trials, n, func(trial int) (*keynav.Set, error) {
		return sampleSet(dist.Uniform, cfg.Params, trial)
	})
	outs := make([]cellOut, cfg.Params.Trials*n)
	pool := sweepPool(cfg.Params.Workers, len(outs))
	inner := innerWorkers(cfg.Params.Workers, pool)
	err := runCells(ctx, pool, len(outs), func(cell int) error {
		c := cell % n
		trial := cell / n
		set, err := groups.get(trial)
		if err != nil {
			return err
		}
		curve := curves[c]
		a, err := acd.Assign(set, curve, cfg.Params.P())
		if err != nil {
			return err
		}
		// One topology, priced on replay like the other experiment
		// runners.
		topos := []topology.Topology{topology.NewTorus(cfg.Params.ProcOrder, curve)}
		nfi, ffi := priceCell(cfg.Params, a, topos, inner)
		outs[cell] = cellOut{nfi: nfi[0].ACD(), ffi: ffi[0].Total().ACD()}
		return nil
	})
	if err != nil {
		return MetricsResult{}, err
	}
	f := 1 / float64(cfg.Params.Trials)
	for cell, o := range outs {
		c := cell % n
		res.NFI[c] += o.nfi * f
		res.FFI[c] += o.ffi * f
	}
	return res, nil
}

type metricsConfigError struct{}

func (metricsConfigError) Error() string { return "experiments: bad metrics configuration" }

var errBadMetricsConfig = metricsConfigError{}
