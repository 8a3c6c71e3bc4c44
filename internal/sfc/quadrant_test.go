package sfc

import (
	"testing"

	"sfcacd/internal/geom"
)

// TestQuadrantTableMatchesIndex walks every cell of a full grid down
// its Morton quadrants at orders 1–8: each table must put every cell at
// exactly Index(order, cell), and exactly the three quadrant-recursive
// curves carry a table.
func TestQuadrantTableMatchesIndex(t *testing.T) {
	for _, c := range Extended() {
		q, ok := c.(Quadrants)
		if want := c == Hilbert || c == Morton || c == Gray; ok != want {
			t.Fatalf("%s: has a quadrant table = %v, want %v", c.Name(), ok, want)
		}
		if !ok {
			continue
		}
		for order := uint(1); order <= 8; order++ {
			side := geom.Side(order)
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					var d uint64
					var state uint8
					for b := int(order) - 1; b >= 0; b-- {
						quad := uint8(x>>b&1 | (y>>b&1)<<1)
						digit, next := q.Quadrant(state, quad)
						d, state = d<<2|uint64(digit), next
					}
					if want := c.Index(order, geom.Pt(x, y)); d != want {
						t.Fatalf("%s order %d: table puts (%d,%d) at %d, Index says %d", c.Name(), order, x, y, d, want)
					}
				}
			}
		}
	}
}
