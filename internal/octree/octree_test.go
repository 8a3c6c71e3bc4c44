package octree

import (
	"testing"

	"sfcacd/internal/geom3"
)

func TestBuildRankTreeMinRank(t *testing.T) {
	pts := []geom3.Point3{
		geom3.Pt3(0, 0, 0), geom3.Pt3(1, 1, 1), // lower octant
		geom3.Pt3(3, 0, 0), // +x octant
		geom3.Pt3(3, 3, 3), // far octant
	}
	ranks := []int32{4, 2, 7, 1}
	tr := BuildRankTree(2, pts, ranks)
	if got := tr.Rep(2, geom3.Pt3(0, 0, 0)); got != 4 {
		t.Errorf("finest rep = %d", got)
	}
	if got := tr.Rep(2, geom3.Pt3(2, 2, 2)); got != -1 {
		t.Errorf("empty cell rep = %d", got)
	}
	if got := tr.Rep(1, geom3.Pt3(0, 0, 0)); got != 2 {
		t.Errorf("lower octant rep = %d, want 2", got)
	}
	if got := tr.Rep(1, geom3.Pt3(1, 0, 0)); got != 7 {
		t.Errorf("+x octant rep = %d, want 7", got)
	}
	if got := tr.Rep(0, geom3.Pt3(0, 0, 0)); got != 1 {
		t.Errorf("root rep = %d, want 1", got)
	}
}

func TestNonEmptyAndVisit(t *testing.T) {
	pts := []geom3.Point3{geom3.Pt3(0, 0, 0), geom3.Pt3(7, 7, 7), geom3.Pt3(3, 4, 5)}
	tr := BuildRankTree(3, pts, []int32{0, 1, 2})
	count := 0
	tr.VisitCells(3, func(p geom3.Point3, rep int32) {
		count++
		if rep == -1 {
			t.Error("visited empty cell")
		}
	})
	if count != 3 {
		t.Fatalf("visited %d", count)
	}
	root := 0
	tr.VisitCells(0, func(geom3.Point3, int32) { root++ })
	if root != 1 {
		t.Fatalf("root level visited %d cells", root)
	}
}

func TestInteractionListGeometry(t *testing.T) {
	// Fill a 4x4x4 level; a corner cell's interaction list holds every
	// cell outside its own octant: 64 - 8 = 56; an interior-ish cell
	// excludes its 3x3x3 Chebyshev ball.
	var pts []geom3.Point3
	var ranks []int32
	for z := uint32(0); z < 4; z++ {
		for y := uint32(0); y < 4; y++ {
			for x := uint32(0); x < 4; x++ {
				pts = append(pts, geom3.Pt3(x, y, z))
				ranks = append(ranks, int32(len(ranks)))
			}
		}
	}
	tr := BuildRankTree(2, pts, ranks)
	count := 0
	tr.InteractionList(2, geom3.Pt3(0, 0, 0), func(q geom3.Point3, _ int32) {
		count++
		if q.X < 2 && q.Y < 2 && q.Z < 2 {
			t.Fatalf("own-octant cell %v in corner list", q)
		}
	})
	if count != 56 {
		t.Fatalf("corner list has %d cells, want 56", count)
	}
	// Cell (2,1,1): all 64 cells minus its 27-cell Chebyshev ball = 37.
	count = 0
	tr.InteractionList(2, geom3.Pt3(2, 1, 1), func(q geom3.Point3, _ int32) {
		count++
		if geom3.Chebyshev(q, geom3.Pt3(2, 1, 1)) <= 1 {
			t.Fatalf("adjacent cell %v in list", q)
		}
	})
	if count != 37 {
		t.Fatalf("interior list has %d cells, want 37", count)
	}
}

func TestInteractionListMatchesBruteForce(t *testing.T) {
	var pts []geom3.Point3
	var ranks []int32
	// Sparse occupancy.
	for i := uint32(0); i < 8; i++ {
		pts = append(pts, geom3.Pt3(i, (i*3)%8, (i*5)%8))
		ranks = append(ranks, int32(i))
	}
	tr := BuildRankTree(3, pts, ranks)
	for level := uint(2); level <= 3; level++ {
		side := geom3.Side(level)
		for z := uint32(0); z < side; z++ {
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					p := geom3.Pt3(x, y, z)
					got := map[geom3.Point3]bool{}
					tr.InteractionList(level, p, func(q geom3.Point3, _ int32) { got[q] = true })
					// Brute force: well separated, parents adjacent,
					// occupied.
					want := map[geom3.Point3]bool{}
					for qz := uint32(0); qz < side; qz++ {
						for qy := uint32(0); qy < side; qy++ {
							for qx := uint32(0); qx < side; qx++ {
								q := geom3.Pt3(qx, qy, qz)
								if geom3.Chebyshev(p, q) <= 1 {
									continue
								}
								pp := geom3.Pt3(p.X/2, p.Y/2, p.Z/2)
								qp := geom3.Pt3(q.X/2, q.Y/2, q.Z/2)
								if geom3.Chebyshev(pp, qp) > 1 {
									continue
								}
								if tr.Rep(level, q) != -1 {
									want[q] = true
								}
							}
						}
					}
					if len(got) != len(want) {
						t.Fatalf("level %d cell %v: %d members, want %d", level, p, len(got), len(want))
					}
					for q := range want {
						if !got[q] {
							t.Fatalf("missing member %v", q)
						}
					}
				}
			}
		}
	}
}

func TestInteractionListLowLevelsEmpty(t *testing.T) {
	tr := BuildRankTree(2, []geom3.Point3{geom3.Pt3(0, 0, 0)}, []int32{0})
	for level := uint(0); level < 2; level++ {
		tr.InteractionList(level, geom3.Pt3(0, 0, 0), func(geom3.Point3, int32) {
			t.Fatalf("level %d yielded members", level)
		})
	}
}

func TestPanics(t *testing.T) {
	tr := BuildRankTree(2, []geom3.Point3{geom3.Pt3(0, 0, 0)}, []int32{0})
	for i, fn := range []func(){
		func() { BuildRankTree(2, []geom3.Point3{geom3.Pt3(0, 0, 0)}, nil) },
		func() { tr.Rep(3, geom3.Pt3(0, 0, 0)) },
		func() { tr.Rep(1, geom3.Pt3(2, 0, 0)) },
		func() { tr.InteractionList(2, geom3.Pt3(4, 0, 0), nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}
