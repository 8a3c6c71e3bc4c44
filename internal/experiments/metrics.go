package experiments

import (
	"context"

	"sfcacd/internal/anns"
	"sfcacd/internal/clustering"
	"sfcacd/internal/dist"
	"sfcacd/internal/obs"
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
	if err := runCells(ctx, cfg.Params.Workers, n, func(_ *obs.Span, c int) error {
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
	// Sweep 2: the ACD columns over trial x curve cells, each priced on
	// one torus.
	outs, err := priceSweep(ctx, cfg.Params.Workers, trialGroups(dist.Uniform, cfg.Params), n, func(_, c int) (sfc.Curve, []topology.Topology, error) {
		return curves[c], []topology.Topology{topology.NewTorus(cfg.Params.ProcOrder, curves[c])}, nil
	})
	if err != nil {
		return MetricsResult{}, err
	}
	f := 1 / float64(cfg.Params.Trials)
	for cell, o := range outs {
		c := cell % n
		res.NFI[c] += o.nfi[0] * f
		res.FFI[c] += o.ffi[0] * f
	}
	return res, nil
}

type metricsConfigError struct{}

func (metricsConfigError) Error() string { return "experiments: bad metrics configuration" }

var errBadMetricsConfig = metricsConfigError{}
