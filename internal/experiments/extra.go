package experiments

import (
	"context"
	"sfcacd/internal/acd"
	"sfcacd/internal/contention"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/primitives"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
	"sfcacd/internal/topology"
)

// PrimitivesResult holds the §VII generality study: the ACD of each
// standard communication primitive on a mesh and torus under each
// processor-order curve (placement is the only thing the curve
// changes here).
type PrimitivesResult struct {
	// Patterns are the primitive names (rows).
	Patterns []string
	// Curves are the placement curve names (columns).
	Curves []string
	// Mesh[p][c] and Torus[p][c] are ACD values.
	Mesh  [][]float64
	Torus [][]float64
}

// Matrices renders the two panels.
func (r PrimitivesResult) Matrices() (mesh, torus *tablefmt.Matrix) {
	mk := func(title string, cells [][]float64) *tablefmt.Matrix {
		return &tablefmt.Matrix{
			Title:      title,
			Corner:     "primitive\\SFC",
			Cols:       r.Curves,
			Rows:       r.Patterns,
			Cells:      cells,
			MarkMinima: true,
		}
	}
	return mk("Communication primitives on the mesh (§VII)", r.Mesh),
		mk("Communication primitives on the torus (§VII)", r.Torus)
}

// RunPrimitives evaluates every §VII primitive under every
// processor-order curve at p = 4^ProcOrder, one sweep cell per curve.
// Deterministic: no sampling is involved. workers caps the sweep pool
// (0 means GOMAXPROCS); the sweep is timed under parent.
func RunPrimitives(parent *obs.Span, procOrder uint, workers int) PrimitivesResult {
	curves := sfc.All()
	pats := primitives.Patterns()
	res := PrimitivesResult{
		Curves: curveNames(curves),
		Mesh:   zeroRect(len(pats), len(curves)),
		Torus:  zeroRect(len(pats), len(curves)),
	}
	for _, p := range pats {
		res.Patterns = append(res.Patterns, p.Name)
	}
	// Cells write disjoint columns directly; no reduction is needed
	// because each matrix slot is assigned exactly once.
	runCells(obs.ContextWithSpan(context.Background(), parent), workers, len(curves), func(_ *obs.Span, c int) error {
		curve := curves[c]
		mesh := topology.NewMesh(procOrder, curve)
		torus := topology.NewTorus(procOrder, curve)
		for i, p := range pats {
			for g, topo := range []topology.Topology{mesh, torus} {
				acc := p.Run(topo)
				acc.Record()
				// Each primitive event costs one Distance query.
				topology.CountDistanceQueries(acc.Count)
				if g == 0 {
					res.Mesh[i][c] = acc.ACD()
				} else {
					res.Torus[i][c] = acc.ACD()
				}
			}
		}
		return nil
	})
	return res
}

// ContentionResult extends the ACD with link-congestion statistics
// (future-work item i): NFI traffic routed with XY routing over the
// mesh and torus, per curve (same curve both roles).
type ContentionResult struct {
	Curves []string
	// Per curve: ACD (hops per message) and the max/mean link load.
	MeshACD, MeshMaxLoad, MeshMeanLoad    []float64
	TorusACD, TorusMaxLoad, TorusMeanLoad []float64
}

// Matrix renders the study.
func (r ContentionResult) Matrix() *tablefmt.Matrix {
	m := &tablefmt.Matrix{
		Title:  "NFI contention under XY routing",
		Corner: "SFC",
		Cols: []string{
			"mesh ACD", "mesh max link", "mesh mean link",
			"torus ACD", "torus max link", "torus mean link",
		},
		Rows: r.Curves,
	}
	for i := range r.Curves {
		m.Cells = append(m.Cells, []float64{
			r.MeshACD[i], r.MeshMaxLoad[i], r.MeshMeanLoad[i],
			r.TorusACD[i], r.TorusMaxLoad[i], r.TorusMeanLoad[i],
		})
	}
	return m
}

// RunContention routes the near-field traffic of a uniform input over
// the mesh and torus and reports congestion alongside the ACD.
func RunContention(ctx context.Context, p Params) (ContentionResult, error) {
	if err := p.Validate(); err != nil {
		return ContentionResult{}, err
	}
	curves := sfc.All()
	n := len(curves)
	res := ContentionResult{
		Curves:        curveNames(curves),
		MeshACD:       make([]float64, n),
		MeshMaxLoad:   make([]float64, n),
		MeshMeanLoad:  make([]float64, n),
		TorusACD:      make([]float64, n),
		TorusMaxLoad:  make([]float64, n),
		TorusMeanLoad: make([]float64, n),
	}
	type gridOut struct {
		acd, maxLoad, meanLoad float64
	}
	outs := make([][2]gridOut, p.Trials*n) // per cell: mesh, torus
	opts := nearOptions(p)
	err := groupSweep(ctx, p.Workers, p.Trials, n,
		func(sweep *obs.Span, trial, workers int) (*keynav.Set, error) {
			return nearSet(sweep, dist.Uniform, p, trial, workers)
		},
		func(sweep *obs.Span, cell int, set *keynav.Set, _ int) error {
			curve := curves[cell%n]
			a, err := acd.Assign(sweep, set, curve, p.P())
			if err != nil {
				return err
			}
			mesh := contention.NewTracker(topology.NewMesh(p.ProcOrder, curve))
			torus := contention.NewTracker(topology.NewTorus(p.ProcOrder, curve))
			// Each replayed near-field pair is one message each way.
			fmmmodel.VisitNFI(a, opts, func(r, q int32) {
				mesh.Route(r, q)
				mesh.Route(q, r)
				torus.Route(r, q)
				torus.Route(q, r)
			})
			for g, tr := range []*contention.Tracker{mesh, torus} {
				s := tr.Stats()
				acdVal := 0.0
				if s.Messages > 0 {
					acdVal = float64(s.Hops) / float64(s.Messages)
				}
				outs[cell][g] = gridOut{acd: acdVal, maxLoad: float64(s.MaxLinkLoad), meanLoad: s.MeanLinkLoad}
			}
			return nil
		})
	if err != nil {
		return ContentionResult{}, err
	}
	f := 1 / float64(p.Trials)
	for cell, o := range outs {
		c := cell % n
		mesh, torus := o[0], o[1]
		res.MeshACD[c] += mesh.acd * f
		res.MeshMaxLoad[c] += mesh.maxLoad * f
		res.MeshMeanLoad[c] += mesh.meanLoad * f
		res.TorusACD[c] += torus.acd * f
		res.TorusMaxLoad[c] += torus.maxLoad * f
		res.TorusMeanLoad[c] += torus.meanLoad * f
	}
	return res, nil
}
