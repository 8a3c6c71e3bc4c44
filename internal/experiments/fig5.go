package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/anns"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
	"sfcacd/internal/tablefmt"
)

// Fig5Result holds the ANNS sweep of Figure 5: the (generalized)
// average nearest neighbor stretch of each curve as the spatial
// resolution grows.
type Fig5Result struct {
	// Radius is the neighborhood radius (1 for Figure 5(a), 6 for
	// Figure 5(b)).
	Radius int
	// Orders are the resolution orders swept (grid side 2^order).
	Orders []uint
	// Curves are the curve names.
	Curves []string
	// ANNS[c][o] is the stretch of curve c at Orders[o].
	ANNS [][]float64
}

// SeriesTable renders the sweep as an aligned figure table with the
// grid side as the X axis.
func (f Fig5Result) SeriesTable() *tablefmt.SeriesTable {
	st := &tablefmt.SeriesTable{
		Title:  fmt.Sprintf("Figure 5: average nearest neighbor stretch, radius %d", f.Radius),
		XLabel: "side",
	}
	for _, o := range f.Orders {
		st.X = append(st.X, float64(geom.Side(o)))
	}
	for c, name := range f.Curves {
		st.Series = append(st.Series, tablefmt.Series{Name: name, Y: f.ANNS[c]})
	}
	return st
}

// RunFig5 computes the ANNS of the paper's four curves for every
// resolution order in [minOrder, maxOrder] at the given radius. The
// paper sweeps 2x2 through 512x512 (orders 1..9), radius 1 in Figure
// 5(a) and radius 6 in Figure 5(b). workers caps the sweep pool over
// curve x order cells (0 means GOMAXPROCS).
func RunFig5(ctx context.Context, minOrder, maxOrder uint, radius, workers int) (Fig5Result, error) {
	if minOrder < 1 || maxOrder < minOrder || maxOrder > 12 {
		return Fig5Result{}, fmt.Errorf("experiments: bad order range [%d,%d]", minOrder, maxOrder)
	}
	if radius < 1 {
		return Fig5Result{}, fmt.Errorf("experiments: bad radius %d", radius)
	}
	curves := sfc.All()
	res := Fig5Result{Radius: radius, Curves: curveNames(curves)}
	for o := minOrder; o <= maxOrder; o++ {
		res.Orders = append(res.Orders, o)
	}
	res.ANNS = make([][]float64, len(curves))
	for c := range curves {
		res.ANNS[c] = make([]float64, len(res.Orders))
	}
	no := len(res.Orders)
	cells := len(curves) * no
	err := runCells(ctx, workers, cells, func(_ *obs.Span, cell int) error {
		c := cell / no
		i := cell % no
		res.ANNS[c][i] = anns.Stretch(curves[c], res.Orders[i], anns.Options{Radius: radius}).Mean
		return nil
	})
	if err != nil {
		return Fig5Result{}, err
	}
	return res, nil
}
