package quadtree

import (
	"testing"

	"sfcacd/internal/geom"
)

func TestBuildRankTreeMinRank(t *testing.T) {
	// Particles in three quadrants of a 4x4 grid with known ranks.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 1), // lower-left quadrant
		geom.Pt(3, 0),                // lower-right
		geom.Pt(2, 3), geom.Pt(3, 3), // upper-right
	}
	ranks := []int32{4, 2, 7, 1, 9}
	tr := BuildRankTree(2, pts, ranks)

	// Finest level: exactly the particle cells.
	if got := tr.Rep(2, 0, 0); got != 4 {
		t.Errorf("rep(2,0,0) = %d", got)
	}
	if got := tr.Rep(2, 1, 1); got != 2 {
		t.Errorf("rep(2,1,1) = %d", got)
	}
	if got := tr.Rep(2, 2, 2); got != -1 {
		t.Errorf("empty cell rep = %d", got)
	}
	// Level 1: 2x2 quadrants take the min of their children.
	if got := tr.Rep(1, 0, 0); got != 2 {
		t.Errorf("lower-left quadrant rep = %d, want 2", got)
	}
	if got := tr.Rep(1, 1, 0); got != 7 {
		t.Errorf("lower-right quadrant rep = %d, want 7", got)
	}
	if got := tr.Rep(1, 1, 1); got != 1 {
		t.Errorf("upper-right quadrant rep = %d, want 1", got)
	}
	if got := tr.Rep(1, 0, 1); got != -1 {
		t.Errorf("empty quadrant rep = %d, want -1", got)
	}
	// Root: global minimum.
	if got := tr.Rep(0, 0, 0); got != 1 {
		t.Errorf("root rep = %d, want 1", got)
	}
}

func TestNonEmptyAndVisit(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(7, 7), geom.Pt(3, 4)}
	ranks := []int32{0, 1, 2}
	tr := BuildRankTree(3, pts, ranks)
	visited := 0
	tr.VisitCells(3, func(x, y uint32, rep int32) {
		visited++
		if rep == -1 {
			t.Error("VisitCells yielded empty cell")
		}
	})
	if visited != 3 {
		t.Errorf("visited %d cells", visited)
	}
	root := 0
	tr.VisitCells(0, func(uint32, uint32, int32) { root++ })
	if root != 1 {
		t.Errorf("root level visited %d cells", root)
	}
}

func TestVisitCellsOrderDeterministic(t *testing.T) {
	pts := []geom.Point{geom.Pt(2, 1), geom.Pt(1, 2), geom.Pt(0, 0)}
	tr := BuildRankTree(2, pts, []int32{0, 1, 2})
	var seq []geom.Point
	tr.VisitCells(2, func(x, y uint32, _ int32) { seq = append(seq, geom.Pt(x, y)) })
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1), geom.Pt(1, 2)} // row-major
	if len(seq) != len(want) {
		t.Fatalf("visited %v", seq)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("visit order %v, want %v", seq, want)
		}
	}
}

func TestBuildRankTreeMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch did not panic")
		}
	}()
	BuildRankTree(2, []geom.Point{geom.Pt(0, 0)}, nil)
}

func TestRepPanics(t *testing.T) {
	tr := BuildRankTree(2, []geom.Point{geom.Pt(0, 0)}, []int32{0})
	for _, fn := range []func(){
		func() { tr.Rep(3, 0, 0) },
		func() { tr.Rep(1, 2, 0) },
		func() { tr.InteractionList(2, 4, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

// TestInteractionListMatchesFigure4 checks the worked example in the
// paper's Figure 4(a): on the 4x4 level, a corner cell's interaction
// list is "every node not in its quadrant" (12 cells), and an interior
// cell like node 6 has 7 cells.
func TestInteractionListMatchesFigure4(t *testing.T) {
	// Fill the whole 4x4 level so all candidate cells are occupied.
	var pts []geom.Point
	var ranks []int32
	for y := uint32(0); y < 4; y++ {
		for x := uint32(0); x < 4; x++ {
			pts = append(pts, geom.Pt(x, y))
			ranks = append(ranks, int32(len(ranks)))
		}
	}
	tr := BuildRankTree(2, pts, ranks)

	// Corner cell (0,0): 12 interaction partners.
	var corner []geom.Point
	tr.InteractionList(2, 0, 0, func(x, y uint32, _ int32) { corner = append(corner, geom.Pt(x, y)) })
	if len(corner) != 12 {
		t.Fatalf("corner interaction list has %d cells, want 12", len(corner))
	}
	for _, c := range corner {
		if c.X < 2 && c.Y < 2 {
			t.Fatalf("corner list includes own-quadrant cell %v", c)
		}
	}
	// Interior cell (2,1) (a "node 6" position): 16 - 9 = 7 cells.
	var interior []geom.Point
	tr.InteractionList(2, 2, 1, func(x, y uint32, _ int32) { interior = append(interior, geom.Pt(x, y)) })
	if len(interior) != 7 {
		t.Fatalf("interior interaction list has %d cells, want 7", len(interior))
	}
	for _, c := range interior {
		if geom.Chebyshev(c, geom.Pt(2, 1)) <= 1 {
			t.Fatalf("interior list includes adjacent cell %v", c)
		}
	}
}

func TestInteractionListSymmetric(t *testing.T) {
	// If b is in a's list, a is in b's list (on a fully occupied grid).
	var pts []geom.Point
	var ranks []int32
	for y := uint32(0); y < 8; y++ {
		for x := uint32(0); x < 8; x++ {
			pts = append(pts, geom.Pt(x, y))
			ranks = append(ranks, int32(len(ranks)))
		}
	}
	tr := BuildRankTree(3, pts, ranks)
	for level := uint(2); level <= 3; level++ {
		side := geom.Side(level)
		lists := make(map[geom.Point]map[geom.Point]bool)
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				m := make(map[geom.Point]bool)
				tr.InteractionList(level, x, y, func(nx, ny uint32, _ int32) {
					m[geom.Pt(nx, ny)] = true
				})
				lists[geom.Pt(x, y)] = m
			}
		}
		for a, m := range lists {
			for b := range m {
				if !lists[b][a] {
					t.Fatalf("level %d: %v in list of %v but not vice versa", level, b, a)
				}
			}
		}
	}
}

func TestInteractionListSkipsEmptyCells(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 3)}
	tr := BuildRankTree(2, pts, []int32{0, 1})
	count := 0
	tr.InteractionList(2, 0, 0, func(x, y uint32, rep int32) {
		count++
		if x != 3 || y != 3 || rep != 1 {
			t.Fatalf("unexpected member (%d,%d) rep %d", x, y, rep)
		}
	})
	if count != 1 {
		t.Fatalf("interaction list had %d members, want 1", count)
	}
}

func TestInteractionListLevelBelow2Empty(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 3)}
	tr := BuildRankTree(2, pts, []int32{0, 1})
	for level := uint(0); level < 2; level++ {
		tr.InteractionList(level, 0, 0, func(uint32, uint32, int32) {
			t.Fatalf("level %d yielded interaction partners", level)
		})
	}
}

func TestInteractionListTotalSizeKnown(t *testing.T) {
	// On a fully occupied level of side s >= 4, summing list sizes over
	// all cells counts each well-separated-with-adjacent-parents pair
	// twice. Verify against a brute-force pair scan.
	var pts []geom.Point
	var ranks []int32
	for y := uint32(0); y < 8; y++ {
		for x := uint32(0); x < 8; x++ {
			pts = append(pts, geom.Pt(x, y))
			ranks = append(ranks, int32(len(ranks)))
		}
	}
	tr := BuildRankTree(3, pts, ranks)
	for level := uint(2); level <= 3; level++ {
		side := geom.Side(level)
		got := 0
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				tr.InteractionList(level, x, y, func(uint32, uint32, int32) { got++ })
			}
		}
		want := 0
		for ay := uint32(0); ay < side; ay++ {
			for ax := uint32(0); ax < side; ax++ {
				for by := uint32(0); by < side; by++ {
					for bx := uint32(0); bx < side; bx++ {
						a, b := geom.Pt(ax, ay), geom.Pt(bx, by)
						if geom.Chebyshev(a, b) <= 1 {
							continue
						}
						pa := geom.Pt(ax/2, ay/2)
						pb := geom.Pt(bx/2, by/2)
						if geom.Chebyshev(pa, pb) <= 1 {
							want++
						}
					}
				}
			}
		}
		if got != want {
			t.Fatalf("level %d: interaction pairs %d, brute force %d", level, got, want)
		}
	}
}
