package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/clustering"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
)

// ClusterResult holds the companion clustering-metric study: the
// average number of clusters random square range queries touch under
// each curve. The paper's narrative contrast: Hilbert wins here while
// losing under ANNS — metrics disagree, which is why ACD (modeling the
// actual application) matters.
type ClusterResult struct {
	// QuerySides are the query window sides swept.
	QuerySides []uint32
	// Curves are the curve names.
	Curves []string
	// Avg[c][q] is the mean cluster count of curve c at query side q.
	Avg [][]float64
}

// SeriesTable renders the study.
func (r ClusterResult) SeriesTable() *tablefmt.SeriesTable {
	st := &tablefmt.SeriesTable{
		Title:  "Clustering metric: mean clusters per random square query",
		XLabel: "query side",
	}
	for _, q := range r.QuerySides {
		st.X = append(st.X, float64(q))
	}
	for c, name := range r.Curves {
		st.Series = append(st.Series, tablefmt.Series{Name: name, Y: r.Avg[c]})
	}
	return st
}

// RunClustering estimates the clustering metric for each curve over
// random square queries at the given resolution order, one sweep cell
// per curve x query-side pair (each cell owns its own rng stream).
// workers caps the sweep pool; 0 means GOMAXPROCS.
func RunClustering(ctx context.Context, order uint, querySides []uint32, trials int, seed uint64, workers int) (ClusterResult, error) {
	if len(querySides) == 0 || trials < 1 || order < 1 || order > 12 {
		return ClusterResult{}, fmt.Errorf("experiments: bad clustering parameters")
	}
	curves := sfc.All()
	res := ClusterResult{
		QuerySides: append([]uint32(nil), querySides...),
		Curves:     curveNames(curves),
		Avg:        zeroRect(len(curves), len(querySides)),
	}
	nq := len(querySides)
	cells := len(curves) * nq
	err := runCells(ctx, workers, cells, func(_ *obs.Span, cell int) error {
		c := cell / nq
		q := cell % nq
		r := rng.New(seed + uint64(q)*1000 + uint64(c))
		res.Avg[c][q] = clustering.AverageClusters(curves[c], order, querySides[q], trials, r)
		return nil
	})
	if err != nil {
		return ClusterResult{}, err
	}
	return res, nil
}
