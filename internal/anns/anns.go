// Package anns implements the Average Nearest Neighbor Stretch metric
// of Xu and Tirthapura (IPDPS 2012) and the paper's generalization of
// it to larger neighborhood radii (§V).
//
// For a curve f over the 2^k x 2^k grid, the stretch of a spatial pair
// (p, q) is |f(p) - f(q)| / d(p, q): the multiplicative increase in
// distance as the pair is mapped into the linear order. ANNS averages
// the stretch over all pairs at Manhattan distance exactly 1; the
// radius-r generalization averages over all pairs within Manhattan
// distance r. The metric is application- and topology-independent.
//
// As the paper notes (§V), ANNS coincides with the near-field ACD when
// every cell of the resolution holds a particle, each particle lives
// on its own processor, and the processors form a bus in curve order.
package anns

import (
	"runtime"

	"sfcacd/internal/geom"
	"sfcacd/internal/panics"
	"sfcacd/internal/sfc"
)

// Ball selects the neighborhood shape for the generalized stretch.
type Ball uint8

const (
	// ManhattanBall is the Xu-Tirthapura neighborhood ("points that are
	// separated by a Manhattan distance of 1") — the default.
	ManhattanBall Ball = iota
	// ChebyshevBall is the edge/corner (L∞) neighborhood, matching the
	// FMM near-field shape.
	ChebyshevBall
)

// geomMetric maps the ball to the shared geometry metric.
func (b Ball) geomMetric() geom.Metric {
	if b == ChebyshevBall {
		return geom.MetricChebyshev
	}
	return geom.MetricManhattan
}

// Options configures the stretch computation.
type Options struct {
	// Radius is the neighborhood radius (default 1 = classic ANNS).
	Radius int
	// Ball selects the neighborhood shape (default ManhattanBall).
	Ball Ball
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
}

func (o *Options) normalize() {
	if o.Radius == 0 {
		o.Radius = 1
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// Result carries the averaged stretch and the pair count it averages.
type Result struct {
	// Mean is the average stretch over all counted pairs.
	Mean float64
	// Pairs is the number of unordered pairs counted.
	Pairs uint64
}

// Stretch computes the (generalized) average nearest neighbor stretch
// of a curve at the given resolution order. Every unordered pair of
// grid points within the configured radius is counted exactly once.
func Stretch(c sfc.Curve, order uint, opts Options) Result {
	opts.normalize()
	metric := opts.Ball.geomMetric()
	side := geom.Side(order)
	// Row stripes, one task each: the first pass precomputes the linear
	// index of every cell, the second sums the stretch of the pairs each
	// stripe's rows tally. Each stripe sums into its own partial, and
	// the partials merge in stripe order, so the float sum does not
	// depend on scheduling.
	workers := min(opts.Workers, int(side))
	stripe := (int(side) + workers - 1) / workers
	stripes := (int(side) + stripe - 1) / stripe
	rows := func(task int) (uint32, uint32) {
		return uint32(task * stripe), uint32(min((task+1)*stripe, int(side)))
	}
	idx := make([]uint64, geom.Cells(order))
	panics.Parallel(workers, stripes, func(_, task int) {
		yLo, yHi := rows(task)
		for y := yLo; y < yHi; y++ {
			for x := uint32(0); x < side; x++ {
				p := geom.Pt(x, y)
				idx[geom.CellID(p, side)] = c.Index(order, p)
			}
		}
	})
	type partial struct {
		sum   float64
		pairs uint64
	}
	parts := make([]partial, stripes)
	panics.Parallel(workers, stripes, func(_, task int) {
		yLo, yHi := rows(task)
		var local partial
		for y := yLo; y < yHi; y++ {
			for x := uint32(0); x < side; x++ {
				p := geom.Pt(x, y)
				pi := idx[geom.CellID(p, side)]
				geom.VisitNeighborhood(p, opts.Radius, metric, side, func(q geom.Point) {
					// Count each unordered pair once: only the
					// lexicographically later endpoint tallies it.
					if q.Y > p.Y || (q.Y == p.Y && q.X > p.X) {
						return
					}
					qi := idx[geom.CellID(q, side)]
					var gap uint64
					if pi > qi {
						gap = pi - qi
					} else {
						gap = qi - pi
					}
					local.sum += float64(gap) / float64(metric.Dist(p, q))
					local.pairs++
				})
			}
		}
		parts[task] = local
	})
	var sum float64
	var pairs uint64
	for _, r := range parts {
		sum += r.sum
		pairs += r.pairs
	}
	if pairs == 0 {
		return Result{}
	}
	return Result{Mean: sum / float64(pairs), Pairs: pairs}
}
