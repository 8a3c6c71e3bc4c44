package sfc

import (
	"testing"
	"testing/quick"

	"sfcacd/internal/geom"
)

func TestRoundTripExhaustive(t *testing.T) {
	for _, c := range Extended() {
		for order := uint(0); order <= 5; order++ {
			n := geom.Cells(order)
			for d := uint64(0); d < n; d++ {
				p := c.Point(order, d)
				if got := c.Index(order, p); got != d {
					t.Fatalf("%s order %d: Index(Point(%d)) = %d", c.Name(), order, d, got)
				}
			}
		}
	}
}

func TestRoundTripRandomHighOrder(t *testing.T) {
	for _, c := range Extended() {
		c := c
		check := func(x, y uint16) bool {
			const order = 16
			p := geom.Point{X: uint32(x), Y: uint32(y)}
			return c.Point(order, c.Index(order, p)) == p
		}
		if err := quick.Check(check, nil); err != nil {
			t.Errorf("%s: %v", c.Name(), err)
		}
	}
}

func TestBijectivity(t *testing.T) {
	for _, c := range Extended() {
		const order = 4
		seen := make(map[geom.Point]uint64)
		Walk(c, order, func(d uint64, p geom.Point) {
			if prev, dup := seen[p]; dup {
				t.Fatalf("%s: cell %v visited at %d and %d", c.Name(), p, prev, d)
			}
			seen[p] = d
		})
		if len(seen) != int(geom.Cells(order)) {
			t.Fatalf("%s: visited %d cells, want %d", c.Name(), len(seen), geom.Cells(order))
		}
	}
}

func TestHilbertUnitSteps(t *testing.T) {
	// The defining property of the Hilbert curve: consecutive positions
	// are spatially adjacent (Manhattan distance exactly 1).
	for order := uint(1); order <= 7; order++ {
		prev := Hilbert.Point(order, 0)
		for d := uint64(1); d < geom.Cells(order); d++ {
			p := Hilbert.Point(order, d)
			if geom.Manhattan(prev, p) != 1 {
				t.Fatalf("order %d: step %d-%d jumps from %v to %v", order, d-1, d, prev, p)
			}
			prev = p
		}
	}
}

func TestSnakeUnitSteps(t *testing.T) {
	for order := uint(1); order <= 6; order++ {
		prev := Snake.Point(order, 0)
		for d := uint64(1); d < geom.Cells(order); d++ {
			p := Snake.Point(order, d)
			if geom.Manhattan(prev, p) != 1 {
				t.Fatalf("order %d: snake step %d jumps from %v to %v", order, d, prev, p)
			}
			prev = p
		}
	}
}

func TestHilbertStartsAtOrigin(t *testing.T) {
	for order := uint(0); order <= 8; order++ {
		if p := Hilbert.Point(order, 0); p != (geom.Pt(0, 0)) {
			t.Fatalf("order %d: curve starts at %v", order, p)
		}
	}
}

func TestHilbertEndsAdjacentToStartRow(t *testing.T) {
	// H_k ends at (2^k-1, 0): entry and exit on the same edge, the
	// property that makes the recursive gluing work.
	for order := uint(1); order <= 8; order++ {
		side := geom.Side(order)
		last := Hilbert.Point(order, geom.Cells(order)-1)
		if last != (geom.Point{X: side - 1, Y: 0}) {
			t.Fatalf("order %d: curve ends at %v, want (%d,0)", order, last, side-1)
		}
	}
}

func TestMortonMatchesInterleaveDefinition(t *testing.T) {
	// Brute-force bit interleaving as the ground truth.
	const order = 5
	side := geom.Side(order)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			var want uint64
			for b := uint(0); b < order; b++ {
				want |= uint64(x>>b&1) << (2 * b)
				want |= uint64(y>>b&1) << (2*b + 1)
			}
			if got := Morton.Index(order, geom.Pt(x, y)); got != want {
				t.Fatalf("morton(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestMortonQuadrantLocality(t *testing.T) {
	// All indices of a 2^j x 2^j aligned block are contiguous — the
	// property the quadtree package relies on.
	const order = 6
	for _, blockOrder := range []uint{1, 2, 3} {
		bs := geom.Side(blockOrder)
		side := geom.Side(order)
		for by := uint32(0); by < side; by += bs {
			for bx := uint32(0); bx < side; bx += bs {
				lo := Morton.Index(order, geom.Pt(bx, by))
				hi := Morton.Index(order, geom.Pt(bx+bs-1, by+bs-1))
				if hi-lo != uint64(bs)*uint64(bs)-1 {
					t.Fatalf("block (%d,%d) size %d spans [%d,%d]", bx, by, bs, lo, hi)
				}
				if lo%uint64(bs*bs) != 0 {
					t.Fatalf("block (%d,%d) not aligned: lo=%d", bx, by, lo)
				}
			}
		}
	}
}

func TestGrayCodeHelpers(t *testing.T) {
	for v := uint64(0); v < 4096; v++ {
		g := GrayEncode(v)
		if GrayDecode(g) != v {
			t.Fatalf("GrayDecode(GrayEncode(%d)) = %d", v, GrayDecode(g))
		}
		if v > 0 {
			diff := GrayEncode(v) ^ GrayEncode(v-1)
			if diff&(diff-1) != 0 {
				t.Fatalf("gray codes of %d and %d differ in >1 bit", v, v-1)
			}
		}
	}
}

func TestGraySuccessiveMortonCodesDifferInOneBit(t *testing.T) {
	// The paper: "each successive binary representation differs in
	// exactly one place" — consecutive Gray-order cells have Morton
	// codes one bit apart.
	const order = 4
	for d := uint64(1); d < geom.Cells(order); d++ {
		a := Gray.Point(order, d-1)
		b := Gray.Point(order, d)
		diff := mortonEncode(a.X, a.Y) ^ mortonEncode(b.X, b.Y)
		if diff == 0 || diff&(diff-1) != 0 {
			t.Fatalf("step %d: morton codes differ by %#x", d, diff)
		}
	}
}

func TestRowMajorMatchesPaperConstruction(t *testing.T) {
	// "assign the points in the first column the values {1..2^k}" —
	// zero-based: column x=0 gets 0..2^k-1 in y order.
	const order = 3
	side := geom.Side(order)
	for y := uint32(0); y < side; y++ {
		if got := RowMajor.Index(order, geom.Pt(0, y)); got != uint64(y) {
			t.Fatalf("first column cell y=%d has index %d", y, got)
		}
	}
	// i-th column numbered (i-1)*2^k+1 .. i*2^k (1-based) = x*2^k + y.
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			want := uint64(x)*uint64(side) + uint64(y)
			if got := RowMajor.Index(order, geom.Pt(x, y)); got != want {
				t.Fatalf("rowmajor(%d,%d) = %d, want %d", x, y, got, want)
			}
		}
	}
}

func TestRecursiveConstructionsMatchFastForms(t *testing.T) {
	type pair struct {
		name string
		fast Curve
		rec  func(uint) []geom.Point
	}
	for _, p := range []pair{
		{"hilbert", Hilbert, RecursiveHilbert},
		{"morton", Morton, RecursiveMorton},
		{"gray", Gray, RecursiveGray},
	} {
		for order := uint(0); order <= 6; order++ {
			seq := p.rec(order)
			if len(seq) != int(geom.Cells(order)) {
				t.Fatalf("%s order %d: recursive length %d", p.name, order, len(seq))
			}
			for d, cell := range seq {
				if got := p.fast.Point(order, uint64(d)); got != cell {
					t.Fatalf("%s order %d: position %d is %v recursively but %v fast",
						p.name, order, d, cell, got)
				}
			}
		}
	}
}

func TestRecursiveConstructionPanicsAboveLimit(t *testing.T) {
	for _, fn := range []func(uint) []geom.Point{RecursiveHilbert, RecursiveMorton, RecursiveGray} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("recursive construction at order 13 did not panic")
				}
			}()
			fn(13)
		}()
	}
}

func TestByName(t *testing.T) {
	for _, c := range Extended() {
		got, err := ByName(c.Name())
		if err != nil || got.Name() != c.Name() {
			t.Errorf("ByName(%q) = %v, %v", c.Name(), got, err)
		}
	}
	for alias, want := range map[string]Curve{
		"z": Morton, "zcurve": Morton, "z-curve": Morton,
		"row": RowMajor, "row-major": RowMajor,
		"graycode": Gray, "gray-code": Gray,
		"boustrophedon": Snake,
	} {
		got, err := ByName(alias)
		if err != nil || got.Name() != want.Name() {
			t.Errorf("ByName(%q) = %v, %v; want %s", alias, got, err, want.Name())
		}
	}
	if _, err := ByName("peano"); err == nil {
		t.Error("ByName(peano) should fail")
	}
}

func TestAllAndNames(t *testing.T) {
	if got := len(All()); got != 4 {
		t.Fatalf("All() has %d curves, want the paper's 4", got)
	}
	if got := len(Extended()); got != 6 {
		t.Fatalf("Extended() has %d curves, want 6", got)
	}
}

func TestSortPoints(t *testing.T) {
	const order = 3
	pts := []geom.Point{geom.Pt(7, 7), geom.Pt(0, 0), geom.Pt(3, 2), geom.Pt(1, 1), geom.Pt(0, 1)}
	for _, c := range Extended() {
		perm := SortPoints(c, order, pts)
		if len(perm) != len(pts) {
			t.Fatalf("perm length %d", len(perm))
		}
		for i := 1; i < len(perm); i++ {
			a := c.Index(order, pts[perm[i-1]])
			b := c.Index(order, pts[perm[i]])
			if a > b {
				t.Fatalf("%s: not sorted at %d: %d > %d", c.Name(), i, a, b)
			}
		}
	}
}

func TestSortPointsStableOnDuplicates(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(1, 1), geom.Pt(1, 1)}
	perm := SortPoints(Hilbert, 2, pts)
	for i, v := range perm {
		if v != i {
			t.Fatalf("duplicate cells reordered: %v", perm)
		}
	}
}

func TestIndexPanicsOutsideGrid(t *testing.T) {
	for _, c := range Extended() {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Index outside grid did not panic", c.Name())
				}
			}()
			c.Index(2, geom.Pt(4, 0))
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: Point outside range did not panic", c.Name())
				}
			}()
			c.Point(2, 16)
		}()
	}
}

func TestOrderZero(t *testing.T) {
	for _, c := range Extended() {
		if got := c.Index(0, geom.Pt(0, 0)); got != 0 {
			t.Errorf("%s: order-0 index = %d", c.Name(), got)
		}
		if got := c.Point(0, 0); got != (geom.Pt(0, 0)) {
			t.Errorf("%s: order-0 point = %v", c.Name(), got)
		}
	}
}
