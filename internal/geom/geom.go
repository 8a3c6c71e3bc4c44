// Package geom provides the small geometric vocabulary shared by the
// rest of the library: integer cell coordinates on a 2^k x 2^k spatial
// resolution, the distance functions used by the ACD and ANNS metrics,
// and neighborhood iterators.
//
// Throughout the library a "spatial resolution" of order k is the square
// grid of side 2^k whose cells are addressed by (X, Y) with
// 0 <= X, Y < 2^k. Particles occupy cells; the paper assumes at most one
// particle per cell at the finest resolution.
package geom

import "fmt"

// Point is a cell coordinate on the spatial resolution grid.
type Point struct {
	X, Y uint32
}

// String renders the point as "(x,y)".
func (p Point) String() string { return fmt.Sprintf("(%d,%d)", p.X, p.Y) }

// Pt is a concise Point constructor.
func Pt(x, y uint32) Point { return Point{X: x, Y: y} }

// absDiff returns |a-b| for unsigned coordinates without conversion
// hazards.
func absDiff(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// Manhattan returns the L1 (taxicab) distance between two points. The
// ANNS metric of Xu and Tirthapura defines spatial adjacency in terms of
// Manhattan distance.
func Manhattan(a, b Point) int {
	return int(absDiff(a.X, b.X)) + int(absDiff(a.Y, b.Y))
}

// Chebyshev returns the L∞ distance between two points. The FMM
// near-field neighborhood of radius r is the Chebyshev ball: for r=1 it
// is the 8 cells sharing an edge or corner, matching the paper's bound.
func Chebyshev(a, b Point) int {
	dx := absDiff(a.X, b.X)
	dy := absDiff(a.Y, b.Y)
	if dx > dy {
		return int(dx)
	}
	return int(dy)
}

// Metric identifies which spatial distance defines a neighborhood.
type Metric uint8

const (
	// MetricChebyshev selects the L∞ ball (edge/corner adjacency).
	MetricChebyshev Metric = iota
	// MetricManhattan selects the L1 ball.
	MetricManhattan
)

// String names the metric.
func (m Metric) String() string {
	switch m {
	case MetricChebyshev:
		return "chebyshev"
	case MetricManhattan:
		return "manhattan"
	default:
		return fmt.Sprintf("metric(%d)", uint8(m))
	}
}

// Dist returns the metric's distance between two points.
func (m Metric) Dist(a, b Point) int {
	if m == MetricManhattan {
		return Manhattan(a, b)
	}
	return Chebyshev(a, b)
}

// Side returns the side length 2^k of a resolution of order k.
func Side(order uint) uint32 {
	if order > 31 {
		panic(fmt.Sprintf("geom: resolution order %d exceeds 31", order))
	}
	return uint32(1) << order
}

// Cells returns the total number of cells 4^k of a resolution of order k.
func Cells(order uint) uint64 {
	return uint64(Side(order)) * uint64(Side(order))
}

// InBounds reports whether (x, y) lies on the grid of the given side,
// accepting signed inputs so window scans can probe outside the grid.
func InBounds(x, y int, side uint32) bool {
	return x >= 0 && y >= 0 && x < int(side) && y < int(side)
}

// CellID flattens a point to a row-major cell identifier on a grid of
// the given side. It is the canonical dense-array index for occupancy
// grids and is unrelated to any space-filling curve order.
func CellID(p Point, side uint32) uint64 {
	return uint64(p.Y)*uint64(side) + uint64(p.X)
}

// VisitNeighborhood calls fn for every grid point q != p with
// m.Dist(p, q) <= r, staying within the grid of the given side. The
// visit order is deterministic (window row-major).
func VisitNeighborhood(p Point, r int, m Metric, side uint32, fn func(q Point)) {
	if r <= 0 {
		return
	}
	for dy := -r; dy <= r; dy++ {
		y := int(p.Y) + dy
		if y < 0 || y >= int(side) {
			continue
		}
		span := r
		if m == MetricManhattan {
			span = r - abs(dy)
		}
		for dx := -span; dx <= span; dx++ {
			if dx == 0 && dy == 0 {
				continue
			}
			x := int(p.X) + dx
			if x < 0 || x >= int(side) {
				continue
			}
			fn(Point{X: uint32(x), Y: uint32(y)})
		}
	}
}

// VisitUpperNeighborhood calls fn for every grid point q with
// m.Dist(p, q) <= r that follows p in row-major order (greater Y, or
// equal Y and greater X). The near-field relation is symmetric, so the
// upper visits of all points partition the full neighborhood visits
// into unordered pairs: every pair {p, q} within radius r is seen
// exactly once, from its row-major-lower endpoint. Callers that need
// the ordered stream count each visit twice.
func VisitUpperNeighborhood(p Point, r int, m Metric, side uint32, fn func(q Point)) {
	if r <= 0 {
		return
	}
	for dy := 0; dy <= r; dy++ {
		y := int(p.Y) + dy
		if y >= int(side) {
			break
		}
		span := r
		if m == MetricManhattan {
			span = r - dy
		}
		lo := -span
		if dy == 0 {
			lo = 1
		}
		for dx := lo; dx <= span; dx++ {
			x := int(p.X) + dx
			if x < 0 || x >= int(side) {
				continue
			}
			fn(Point{X: uint32(x), Y: uint32(y)})
		}
	}
}

// NeighborhoodSize returns the number of grid points q != p within
// distance r of p under metric m on an unbounded grid. Useful for
// validating iterators and sizing buffers.
func NeighborhoodSize(r int, m Metric) int {
	if r <= 0 {
		return 0
	}
	if m == MetricManhattan {
		// |B1(r)| = 2r^2 + 2r + 1 including the center.
		return 2*r*r + 2*r
	}
	side := 2*r + 1
	return side*side - 1
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
