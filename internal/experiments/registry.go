package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"sfcacd/internal/obs"
)

// Result is the common surface every experiment result exposes: a
// human-readable rendering (the tables acdbench prints) and zero or
// more machine-readable CSV panels. Every result type also round-trips
// through encoding/json, which is how the serving layer stores and
// replays it.
type Result interface {
	Render(io.Writer) error
	CSVPanels() []CSVPanel
}

// CSVPanel is one machine-readable panel of a result.
type CSVPanel struct {
	// Name is the panel's file stem (acdbench writes <Name>.csv).
	Name string
	// Write emits the panel.
	Write func(io.Writer) error
}

// Output is what running one registry entry produces: the effective
// (fully derived) configuration and the structured result.
type Output struct {
	// Params is the effective configuration, recorded in run manifests
	// and cached alongside the result. Its concrete type varies per
	// experiment (Params, ThreeDParams, MetricsConfig, ...).
	Params any
	// Result is the experiment's structured result.
	Result Result
}

// Spec is one registry entry: an experiment name bound to its runner.
// The table below is the single source of truth shared by
// cmd/acdbench (flag help, -list, "all" expansion) and cmd/acdserverd
// (the POST /v1/experiments/{name} routes and registry listing).
type Spec struct {
	// Name is the experiment's stable identifier.
	Name string
	// Desc is a one-line description for listings.
	Desc string
	// Paper is the paper-scale preset of the shared knobs; scaled-down
	// defaults derive from it via Params.Scale.
	Paper Params
	// Run executes the experiment. Every experiment-specific
	// configuration (sweep schedules, 3D orders, metric grid sizes) is
	// a pure function of the shared knobs, so equal Params always mean
	// an equal Output — the invariant content-addressed caching rests
	// on.
	Run func(ctx context.Context, p Params) (*Output, error)
	// Decode reconstructs a Result of this experiment from its JSON
	// encoding, for rendering cache hits.
	Decode func([]byte) (Result, error)
	// Check replaces Params.Validate for an experiment that derives
	// its configuration from the shared knobs: threed checks its 3D
	// configuration, which never builds the 2D grid, processors and
	// trials Params.Validate bounds, and radius and nsweep check
	// Params.Validate, then their swept radii and sizes. nil means
	// Params.Validate.
	Check func(Params) error
	// Canonical clears the knobs the experiment does not read, so
	// requests that differ only in them share one cache key: all but
	// dynamic and dynamicincr clear Distribution, radius (fixed radii)
	// Radius too, and threed Order, ProcOrder and Trials. nil changes
	// nothing. Resolve applies it.
	Canonical func(Params) Params
}

// Resolve returns p as this experiment keys it: p with the knobs the
// experiment ignores cleared by Canonical. serve's single and batch
// requests and acdbench resolve their parameters through it before
// Validate and keying.
func (s Spec) Resolve(p Params) Params {
	if s.Canonical != nil {
		return s.Canonical(p)
	}
	return p
}

// Validate checks p for this experiment before anything runs:
// Params.Validate when it has no Check, else the knobs every
// experiment reads alike and then Check.
func (s Spec) Validate(p Params) error {
	if s.Check == nil {
		return p.Validate()
	}
	if err := p.validateKnobs(); err != nil {
		return err
	}
	return s.Check(p)
}

// output adapts a runner whose effective configuration is p to
// Spec.Run.
func output[R Result](run func(context.Context, Params) (R, error)) func(context.Context, Params) (*Output, error) {
	return func(ctx context.Context, p Params) (*Output, error) {
		res, err := run(ctx, p)
		if err != nil {
			return nil, err
		}
		return &Output{Params: p, Result: res}, nil
	}
}

// ignoreDistribution is the Canonical of the experiments that sample
// fixed distributions and never read Params.Distribution.
func ignoreDistribution(p Params) Params {
	p.Distribution = ""
	return p
}

// Registry returns the experiment table in display order.
func Registry() []Spec { return registry }

// Names returns the experiment names in display order.
func Names() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// Lookup finds a registry entry by name.
func Lookup(name string) (Spec, bool) {
	for _, s := range registry {
		if s.Name == name {
			return s, true
		}
	}
	return Spec{}, false
}

var registry = []Spec{
	{
		Name:  "table12",
		Desc:  "Tables I-II: NFI/FFI ACD per particle x processor curve pair, all distributions",
		Paper: Table12Paper,
		Run: output(func(ctx context.Context, p Params) (Table12Set, error) {
			res, err := RunTable12(ctx, p)
			return Table12Set(res), err
		}),
		Decode:    decodeResult[Table12Set],
		Canonical: ignoreDistribution,
	},
	{
		Name:      "fig6",
		Desc:      "Figure 6: NFI/FFI ACD across the six network topologies",
		Paper:     Fig6Paper,
		Run:       output(RunFig6),
		Decode:    decodeResult[Fig6Result],
		Canonical: ignoreDistribution,
	},
	{
		Name:  "fig7",
		Desc:  "Figure 7: ACD vs processor count on a torus",
		Paper: Fig7Paper,
		Run: output(func(ctx context.Context, p Params) (Fig7Result, error) {
			return RunFig7(ctx, p, fig7Orders(p))
		}),
		Decode:    decodeResult[Fig7Result],
		Canonical: ignoreDistribution,
	},
	{
		Name:  "radius",
		Desc:  "§VI-C: NFI ACD as the near-field radius grows",
		Paper: Table12Paper,
		Run: output(func(ctx context.Context, p Params) (RadiusSweepResult, error) {
			return RunRadiusSweep(ctx, p, sweepRadii)
		}),
		Decode: decodeResult[RadiusSweepResult],
		Check: func(p Params) error {
			if err := p.Validate(); err != nil {
				return err
			}
			for _, r := range sweepRadii {
				if err := checkNearEvents(p.Particles, r, 2); err != nil {
					return err
				}
			}
			return nil
		},
		Canonical: func(p Params) Params {
			p.Radius = 0
			return ignoreDistribution(p)
		},
	},
	{
		Name:  "nsweep",
		Desc:  "§VI-C: ACD as the particle count grows at fixed p",
		Paper: Table12Paper,
		Run: output(func(ctx context.Context, p Params) (SizeSweepResult, error) {
			return RunSizeSweep(ctx, p, sweepSizes(p))
		}),
		Decode: decodeResult[SizeSweepResult],
		Check: func(p Params) error {
			if err := p.Validate(); err != nil {
				return err
			}
			for _, n := range sweepSizes(p) {
				q := p
				q.Particles = n
				if err := q.Validate(); err != nil {
					return fmt.Errorf("swept size %d: %w", n, err)
				}
			}
			return nil
		},
		Canonical: ignoreDistribution,
	},
	{
		Name:      "meshtorus",
		Desc:      "§VI-B: mesh vs torus wrap-link ablation",
		Paper:     Table12Paper,
		Run:       output(RunMeshTorus),
		Decode:    decodeResult[MeshTorusResult],
		Canonical: ignoreDistribution,
	},
	{
		Name:  "primitives",
		Desc:  "§VII: communication primitives under each placement curve",
		Paper: Table12Paper,
		Run: func(ctx context.Context, p Params) (*Output, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			res := RunPrimitives(obs.SpanFrom(ctx), p.ProcOrder, p.Workers)
			return &Output{Params: map[string]any{"procorder": p.ProcOrder}, Result: res}, nil
		},
		Decode:    decodeResult[PrimitivesResult],
		Canonical: ignoreDistribution,
	},
	{
		Name:      "contention",
		Desc:      "NFI link congestion under XY routing (future-work item i)",
		Paper:     Table12Paper,
		Run:       output(RunContention),
		Decode:    decodeResult[ContentionResult],
		Canonical: ignoreDistribution,
	},
	{
		Name:  "dynamic",
		Desc:  "§VI-A: ACD over drift timesteps, static vs reordered assignment",
		Paper: Table12Paper,
		Run: output(func(ctx context.Context, p Params) (DynamicResult, error) {
			return RunDynamic(ctx, p, 8)
		}),
		Decode: decodeResult[DynamicResult],
	},
	{
		Name:  "dynamicincr",
		Desc:  "Incremental pipeline: maintained order, assignment, and near-field ACD over n-body ticks",
		Paper: Table12Paper,
		Run: output(func(ctx context.Context, p Params) (DynamicIncrResult, error) {
			return RunDynamicIncr(ctx, p, dynamicIncrTicks)
		}),
		Decode: decodeResult[DynamicIncrResult],
	},
	{
		Name:  "threed",
		Desc:  "3D validation: ACD and ANNS on a 3D torus (future-work item ii)",
		Paper: Table12Paper,
		Run: func(ctx context.Context, p Params) (*Output, error) {
			tp := ThreeDFromParams(p)
			res, err := RunThreeD(ctx, tp, p.Workers)
			if err != nil {
				return nil, err
			}
			return &Output{Params: tp, Result: res}, nil
		},
		Decode: decodeResult[ThreeDResult],
		Check:  func(p Params) error { return ThreeDFromParams(p).Validate() },
		Canonical: func(p Params) Params {
			p.Order, p.ProcOrder, p.Trials = 0, 0, 0
			return ignoreDistribution(p)
		},
	},
	{
		Name:  "clustering",
		Desc:  "Clustering metric: mean clusters per random square query",
		Paper: Table12Paper,
		Run: func(ctx context.Context, p Params) (*Output, error) {
			cfg := ClusteringFromParams(p)
			res, err := RunClustering(ctx, cfg.Order, cfg.QuerySides, cfg.QueryTrials, cfg.Seed, p.Workers)
			if err != nil {
				return nil, err
			}
			return &Output{Params: cfg, Result: res}, nil
		},
		Decode:    decodeResult[ClusterResult],
		Canonical: ignoreDistribution,
	},
	{
		Name:      "loadbalance",
		Desc:      "Equal-count vs equal-work SFC chunking on a skewed input",
		Paper:     Table12Paper,
		Run:       output(RunLoadBalance),
		Decode:    decodeResult[LoadBalanceResult],
		Canonical: ignoreDistribution,
	},
	{
		Name:      "execmodel",
		Desc:      "ACD vs bulk-synchronous modeled makespan",
		Paper:     Table12Paper,
		Run:       output(RunExecModel),
		Decode:    decodeResult[ExecModelResult],
		Canonical: ignoreDistribution,
	},
	{
		Name:  "metrics",
		Desc:  "Metric landscape: proximity metrics vs application ACD",
		Paper: Table12Paper,
		Run: func(ctx context.Context, p Params) (*Output, error) {
			cfg := MetricsFromParams(p)
			res, err := RunMetrics(ctx, cfg)
			if err != nil {
				return nil, err
			}
			return &Output{Params: cfg, Result: res}, nil
		},
		Decode:    decodeResult[MetricsResult],
		Canonical: ignoreDistribution,
	},
}

// decodeResult is the shared Decode implementation: unmarshal the JSON
// encoding into the experiment's concrete result type.
func decodeResult[T Result](data []byte) (Result, error) {
	var v T
	if err := json.Unmarshal(data, &v); err != nil {
		return nil, err
	}
	return v, nil
}

// sweepRadii are the near-field radii the radius experiment sweeps.
var sweepRadii = []int{1, 2, 4, 6, 8}

// sweepSizes derives the particle counts the nsweep experiment sweeps:
// an eighth, a quarter, a half and all of p.Particles.
func sweepSizes(p Params) []int {
	return []int{p.Particles / 8, p.Particles / 4, p.Particles / 2, p.Particles}
}

// fig7Orders derives the processor-order sweep from the shared knobs:
// 4^(ProcOrder-3) up to 4^ProcOrder, the paper's 1,024..65,536 at full
// scale.
func fig7Orders(p Params) []uint {
	lo := uint(2)
	if p.ProcOrder > 3 {
		lo = p.ProcOrder - 3
	}
	var orders []uint
	for o := lo; o <= p.ProcOrder; o++ {
		orders = append(orders, o)
	}
	return orders
}

// ThreeDFromParams derives the 3D study configuration from the shared
// knobs: the laptop-scale ThreeDDefault geometry below paper scale, the
// 128^3-cell / 512-processor configuration at paper scale.
func ThreeDFromParams(p Params) ThreeDParams {
	t := ThreeDDefault
	if p.Particles >= 200000 {
		t.Particles, t.Order, t.ProcOrder, t.ANNSOrder = 200000, 7, 3, 5
	}
	t.Radius = p.Radius
	t.Seed = p.Seed
	return t
}

// ClusteringConfig is the derived configuration of the clustering
// study.
type ClusteringConfig struct {
	Order       uint
	QuerySides  []uint32
	QueryTrials int
	Seed        uint64
}

// ClusteringFromParams derives the clustering study from the shared
// knobs: the query-trial budget scales with the input size, clamped to
// [2000, 10000] (2,000 at the scaled default, 10,000 at paper scale).
func ClusteringFromParams(p Params) ClusteringConfig {
	trials := p.Particles / 25
	if trials < 2000 {
		trials = 2000
	}
	if trials > 10000 {
		trials = 10000
	}
	return ClusteringConfig{
		Order:       p.Order,
		QuerySides:  []uint32{2, 4, 8, 16, 32},
		QueryTrials: trials,
		Seed:        p.Seed,
	}
}

// MetricsFromParams derives the metric-landscape study from the shared
// knobs: the full-grid metric resolution tracks one order below the
// particle grid, clamped to [3, 9] (7 at the scaled default, 9 at
// paper scale).
func MetricsFromParams(p Params) MetricsConfig {
	mo := uint(3)
	if p.Order > 4 {
		mo = p.Order - 1
	}
	if mo > 9 {
		mo = 9
	}
	return MetricsConfig{Params: p, MetricOrder: mo, QuerySide: 8, QueryTrials: 5000}
}

// Table12Set is the table12 experiment's result: one Table12Result per
// input distribution.
type Table12Set []Table12Result

// renderPanels writes each panel followed by a blank separator line.
func renderPanels(w io.Writer, panels ...interface{ Render(io.Writer) error }) error {
	for i, p := range panels {
		if i > 0 {
			if _, err := fmt.Fprintln(w); err != nil {
				return err
			}
		}
		if err := p.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// Render writes both tables of every distribution.
func (s Table12Set) Render(w io.Writer) error {
	for _, res := range s {
		nfi, ffi := res.Matrices()
		if err := renderPanels(w, nfi, ffi); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// CSVPanels returns one panel per distribution.
func (s Table12Set) CSVPanels() []CSVPanel {
	panels := make([]CSVPanel, len(s))
	for i, res := range s {
		panels[i] = CSVPanel{Name: "table12_" + res.Distribution, Write: res.WriteCSV}
	}
	return panels
}

// Render writes the two panels of Figure 6.
func (f Fig6Result) Render(w io.Writer) error {
	nfi, ffi := f.Matrices()
	return renderPanels(w, nfi, ffi)
}

// CSVPanels returns the fig6 panel.
func (f Fig6Result) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "fig6", Write: f.WriteCSV}}
}

// Render writes the two panels of Figure 7.
func (f Fig7Result) Render(w io.Writer) error {
	nfi, ffi := f.SeriesTables()
	return renderPanels(w, nfi, ffi)
}

// CSVPanels returns the fig7 panel.
func (f Fig7Result) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "fig7", Write: f.WriteCSV}}
}

// Render writes the ANNS sweep table.
func (f Fig5Result) Render(w io.Writer) error { return f.SeriesTable().Render(w) }

// CSVPanels returns the fig5 panel.
func (f Fig5Result) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "fig5", Write: f.WriteCSV}}
}

// Render writes the radius sweep table.
func (r RadiusSweepResult) Render(w io.Writer) error { return r.SeriesTable().Render(w) }

// CSVPanels returns the radius panel.
func (r RadiusSweepResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "radius", Write: r.WriteCSV}}
}

// Render writes the two size-sweep panels.
func (r SizeSweepResult) Render(w io.Writer) error {
	nfi, ffi := r.SeriesTables()
	return renderPanels(w, nfi, ffi)
}

// CSVPanels returns the nsweep panel.
func (r SizeSweepResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "nsweep", Write: r.WriteCSV}}
}

// Render writes the mesh-vs-torus ablation table.
func (r MeshTorusResult) Render(w io.Writer) error { return r.Matrix().Render(w) }

// CSVPanels returns the meshtorus panel.
func (r MeshTorusResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "meshtorus", Write: r.WriteCSV}}
}

// Render writes the two primitive panels.
func (r PrimitivesResult) Render(w io.Writer) error {
	mesh, torus := r.Matrices()
	return renderPanels(w, mesh, torus)
}

// CSVPanels returns nil: the primitives study has no CSV form.
func (r PrimitivesResult) CSVPanels() []CSVPanel { return nil }

// Render writes the contention table.
func (r ContentionResult) Render(w io.Writer) error { return r.Matrix().Render(w) }

// CSVPanels returns the contention panel.
func (r ContentionResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "contention", Write: r.WriteCSV}}
}

// Render writes the two timestep-policy panels.
func (r DynamicResult) Render(w io.Writer) error {
	static, reorder := r.SeriesTables()
	return renderPanels(w, static, reorder)
}

// CSVPanels returns the dynamic panel.
func (r DynamicResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "dynamic", Write: r.WriteCSV}}
}

// Render writes the maintained-ACD and drift-gauge panels plus the
// per-curve repartition summary.
func (r DynamicIncrResult) Render(w io.Writer) error {
	acdT, gauge := r.SeriesTables()
	if err := renderPanels(w, acdT, gauge); err != nil {
		return err
	}
	for c, curve := range r.Curves {
		if _, err := fmt.Fprintf(w, "repartitions[%s] = %d\n", curve, r.Repartitions[c]); err != nil {
			return err
		}
	}
	return nil
}

// CSVPanels returns the dynamicincr panel.
func (r DynamicIncrResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "dynamicincr", Write: r.WriteCSV}}
}

// Render writes the 3D validation table.
func (r ThreeDResult) Render(w io.Writer) error { return r.Matrix().Render(w) }

// CSVPanels returns the threed panel.
func (r ThreeDResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "threed", Write: r.WriteCSV}}
}

// Render writes the clustering sweep table.
func (r ClusterResult) Render(w io.Writer) error { return r.SeriesTable().Render(w) }

// CSVPanels returns the clustering panel.
func (r ClusterResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "clustering", Write: r.WriteCSV}}
}

// Render writes the load-balancing table.
func (r LoadBalanceResult) Render(w io.Writer) error { return r.Matrix().Render(w) }

// CSVPanels returns the loadbalance panel.
func (r LoadBalanceResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "loadbalance", Write: r.WriteCSV}}
}

// Render writes the execution-model table.
func (r ExecModelResult) Render(w io.Writer) error { return r.Matrix().Render(w) }

// CSVPanels returns the execmodel panel.
func (r ExecModelResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "execmodel", Write: r.WriteCSV}}
}

// Render writes the metric-landscape table.
func (r MetricsResult) Render(w io.Writer) error { return r.Matrix().Render(w) }

// CSVPanels returns the metrics panel.
func (r MetricsResult) CSVPanels() []CSVPanel {
	return []CSVPanel{{Name: "metrics", Write: r.WriteCSV}}
}
