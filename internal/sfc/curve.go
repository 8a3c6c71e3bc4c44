// Package sfc implements the discrete space-filling curves studied in
// the paper — the Hilbert curve, the Z-curve (Morton order), the Gray
// order, and the row-major order — plus a snake-scan extension and
// n-dimensional Hilbert/Morton generalizations.
//
// A curve of order k visits every cell of the 2^k x 2^k spatial
// resolution exactly once, assigning each cell a unique index in
// [0, 4^k). Index and Point are exact inverses for every curve.
package sfc

import (
	"fmt"

	"sfcacd/internal/geom"
)

// MaxOrder is the largest supported curve order: coordinates fit in
// uint32 and indices in uint64 up to this order.
const MaxOrder = 31

// Curve maps between 2D cell coordinates and positions along a
// space-filling curve of a given order.
type Curve interface {
	// Name returns the curve's canonical lower-case name.
	Name() string
	// Index returns the position of p along the curve of the given
	// order, in [0, 4^order). p must lie on the grid of side 2^order.
	Index(order uint, p geom.Point) uint64
	// Point returns the cell visited at position d along the curve of
	// the given order. d must be in [0, 4^order).
	Point(order uint, d uint64) geom.Point
}

func checkOrder(order uint) {
	if order > MaxOrder {
		panic(fmt.Sprintf("sfc: order %d exceeds MaxOrder %d", order, MaxOrder))
	}
}

func checkPoint(order uint, p geom.Point) {
	checkOrder(order)
	side := geom.Side(order)
	if p.X >= side || p.Y >= side {
		panic(fmt.Sprintf("sfc: point %v outside %dx%d grid", p, side, side))
	}
}

func checkIndex(order uint, d uint64) {
	checkOrder(order)
	if d >= geom.Cells(order) {
		panic(fmt.Sprintf("sfc: index %d outside curve of order %d", d, order))
	}
}

// Canonical curve singletons.
var (
	// Hilbert is the Hilbert curve (Hilbert 1891), the recursively
	// rotated Peano-family curve of Figure 1(a).
	Hilbert Curve = hilbertCurve{}
	// Morton is the Z-curve (Morton 1966): bit interleaving, Figure 1(b).
	Morton Curve = mortonCurve{}
	// Gray is the Gray order (Gray-coded Z-curve), Figure 1(c).
	Gray Curve = grayCurve{}
	// RowMajor is the simple row/column-major scan, Figure 1(d).
	RowMajor Curve = rowMajorCurve{}
	// Snake is the boustrophedon scan — the discrete analog of the
	// "snake scan" continuous curve referenced by Xu and Tirthapura.
	// It is an extension beyond the paper's four curves.
	Snake Curve = snakeCurve{}
)

// All returns the four curves evaluated in the paper, in the paper's
// column order (Hilbert, Z, Gray, Row major).
func All() []Curve {
	return []Curve{Hilbert, Morton, Gray, RowMajor}
}

// Extended returns All plus the extension curves (snake scan and the
// Moore loop).
func Extended() []Curve {
	return append(All(), Snake, Moore)
}

// ByName resolves a curve by its Name (or common aliases). It returns
// an error for unknown names.
func ByName(name string) (Curve, error) {
	switch name {
	case "hilbert":
		return Hilbert, nil
	case "morton", "z", "zcurve", "z-curve":
		return Morton, nil
	case "gray", "graycode", "gray-code":
		return Gray, nil
	case "rowmajor", "row-major", "row":
		return RowMajor, nil
	case "snake", "boustrophedon":
		return Snake, nil
	case "moore":
		return Moore, nil
	}
	return nil, fmt.Errorf("sfc: unknown curve %q", name)
}

// SortPoints returns the indices 0..len(pts)-1 permuted so that
// pts[perm[0]], pts[perm[1]], ... follow the curve's linear order at
// the given resolution order. Ties are impossible when each cell holds
// at most one particle; duplicate cells, if present, keep their input
// order (the sort is stable).
func SortPoints(c Curve, order uint, pts []geom.Point) []int {
	perm, _ := SortPointsKeys(c, order, pts)
	return perm
}

// SortPointsKeys is SortPoints but also returns the curve keys it
// computed (keys[i] is the index of pts[i], input order — not sorted),
// so callers that need the keys afterwards, like the incremental
// pipeline's duplicate-cell check, avoid re-encoding every particle.
func SortPointsKeys(c Curve, order uint, pts []geom.Point) ([]int, []uint64) {
	keys := make([]uint64, len(pts))
	for i, p := range pts {
		keys[i] = c.Index(order, p)
	}
	perm := make([]int, len(pts))
	for i := range perm {
		perm[i] = i
	}
	SortPermByKeys(perm, keys)
	return perm, keys
}

// Walk calls fn for every position d = 0..4^order-1 with the cell the
// curve visits at d. It is the curve-as-path view used by renderers and
// adjacency tests.
func Walk(c Curve, order uint, fn func(d uint64, p geom.Point)) {
	n := geom.Cells(order)
	for d := uint64(0); d < n; d++ {
		fn(d, c.Point(order, d))
	}
}
