// Package clustering implements the classical clustering metric for
// space-filling curves (Jagadish 1990; Moon, Jagadish, Faloutsos &
// Saltz 2001) that the paper contrasts with ANNS and ACD: the number
// of clusters — maximal runs of consecutive curve positions — needed
// to cover a rectilinear range query. The better the curve, the fewer
// clusters an average query touches. Under this metric the Hilbert
// curve is the traditional winner, the counterpoint to its ANNS loss
// in §V of the paper.
package clustering

import (
	"fmt"
	"sort"

	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// Rect is a rectilinear query region: cells with Lo.X <= x <= Hi.X and
// Lo.Y <= y <= Hi.Y.
type Rect struct {
	Lo, Hi geom.Point
}

// Valid reports whether the rectangle is non-empty and lies on the
// grid of the given order.
func (r Rect) Valid(order uint) bool {
	side := geom.Side(order)
	return r.Lo.X <= r.Hi.X && r.Lo.Y <= r.Hi.Y && r.Hi.X < side && r.Hi.Y < side
}

// Cells returns the number of cells in the rectangle.
func (r Rect) Cells() uint64 {
	return uint64(r.Hi.X-r.Lo.X+1) * uint64(r.Hi.Y-r.Lo.Y+1)
}

// Clusters returns the number of clusters of the query region under
// the curve: the number of maximal runs of consecutive curve indices
// covered by the rectangle. A perfect ordering yields 1.
func Clusters(c sfc.Curve, order uint, r Rect) int {
	if !r.Valid(order) {
		panic(fmt.Sprintf("clustering: invalid rect %v-%v at order %d", r.Lo, r.Hi, order))
	}
	idx := make([]uint64, 0, r.Cells())
	for y := r.Lo.Y; y <= r.Hi.Y; y++ {
		for x := r.Lo.X; x <= r.Hi.X; x++ {
			idx = append(idx, c.Index(order, geom.Pt(x, y)))
		}
	}
	sort.Slice(idx, func(a, b int) bool { return idx[a] < idx[b] })
	clusters := 1
	for i := 1; i < len(idx); i++ {
		if idx[i] != idx[i-1]+1 {
			clusters++
		}
	}
	return clusters
}

// RandomQuery draws a uniformly random axis-aligned square query of
// the given side length.
func RandomQuery(r *rng.Rand, order uint, querySide uint32) Rect {
	side := geom.Side(order)
	if querySide < 1 || querySide > side {
		panic(fmt.Sprintf("clustering: query side %d outside grid %d", querySide, side))
	}
	x := r.Uint32n(side - querySide + 1)
	y := r.Uint32n(side - querySide + 1)
	return Rect{Lo: geom.Pt(x, y), Hi: geom.Pt(x+querySide-1, y+querySide-1)}
}

// AverageClusters estimates the expected cluster count of random
// square queries of the given side, over the given number of trials.
func AverageClusters(c sfc.Curve, order uint, querySide uint32, trials int, r *rng.Rand) float64 {
	if trials < 1 {
		panic("clustering: need at least one trial")
	}
	sum := 0
	for i := 0; i < trials; i++ {
		sum += Clusters(c, order, RandomQuery(r, order, querySide))
	}
	return float64(sum) / float64(trials)
}

// RandomRectQuery draws a uniformly random axis-aligned rectangle of
// the given width and height. Elongated queries expose orderings that
// square queries hide: an s x s window is exactly s row-runs under
// row-major (tying Hilbert), but a wide 1 x w window is w runs under
// row-major and far fewer under recursive curves.
func RandomRectQuery(r *rng.Rand, order uint, width, height uint32) Rect {
	side := geom.Side(order)
	if width < 1 || height < 1 || width > side || height > side {
		panic(fmt.Sprintf("clustering: rect %dx%d outside grid %d", width, height, side))
	}
	x := r.Uint32n(side - width + 1)
	y := r.Uint32n(side - height + 1)
	return Rect{Lo: geom.Pt(x, y), Hi: geom.Pt(x+width-1, y+height-1)}
}
