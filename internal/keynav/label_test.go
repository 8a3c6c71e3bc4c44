package keynav_test

import (
	"fmt"
	"slices"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/partition"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestLabelAlongMatchesSortPath holds the top-down pass to the sort
// path at every level: sort the points along the curve, chunk them,
// scatter the chunks to the points and label the set with Label. It
// covers Hilbert, Morton and Gray at orders 0–12 on sparse uniform,
// normal, exponential and full sets, with p from 1 up to more ranks
// than particles (which leaves some ranks empty).
func TestLabelAlongMatchesSortPath(t *testing.T) {
	curves := []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray}
	for order := uint(0); order <= 12; order++ {
		cells := int(geom.Cells(order))
		sets := map[string][]geom.Point{}
		if order <= 7 {
			sets["full"] = fullGrid(order)
		}
		for _, s := range dist.All() {
			n := max(min(cells/2, 2000), 1)
			if s == dist.Uniform {
				n = max(min(cells/64, 1500), 1) // sparse
			}
			pts, err := dist.SampleUnique(s, rng.New(uint64(order)+7), order, n)
			if err != nil {
				t.Fatal(err)
			}
			sets[s.Name()] = pts
		}
		for name, pts := range sets {
			set, err := keynav.NewSet(order, pts)
			if err != nil {
				t.Fatal(err)
			}
			n := len(pts)
			for _, c := range curves {
				perm := sfc.SortPoints(c, order, pts)
				for _, p := range []int{1, 3, 4096, n + 5} {
					ranks := make([]int32, n)  // by curve position
					owners := make([]int32, n) // by input point
					for k, i := range perm {
						ranks[k] = int32(partition.ChunkOf(k, n, p))
						owners[i] = ranks[k]
					}
					want := set.Label(owners)
					got := set.LabelAlong(c.(sfc.Quadrants), ranks)
					for l := uint(0); l <= order; l++ {
						if !slices.Equal(got.Reps(l), want.Reps(l)) {
							t.Fatalf("%s order %d %s n=%d p=%d: level %d representatives differ from the sort path",
								c.Name(), order, name, n, p, l)
						}
					}
				}
			}
		}
	}
}

// TestLabelAlongEmptyAndSingle covers the degenerate sets: no
// particles, and one particle at order 0 and at order 5.
func TestLabelAlongEmptyAndSingle(t *testing.T) {
	q := sfc.Hilbert.(sfc.Quadrants)
	empty, err := keynav.NewSet(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ix := empty.LabelAlong(q, nil); ix.LevelLen(4) != 0 {
		t.Fatalf("empty set labels %d cells", ix.LevelLen(4))
	}
	for _, order := range []uint{0, 5} {
		set, err := keynav.NewSet(order, []geom.Point{geom.Pt(0, 0)})
		if err != nil {
			t.Fatal(err)
		}
		ix := set.LabelAlong(q, []int32{3})
		for l := uint(0); l <= order; l++ {
			if got := ix.Reps(l); !slices.Equal(got, []int32{3}) {
				t.Fatalf("order %d level %d: reps %v, want [3]", order, l, got)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LabelAlong accepted 2 ranks for a set of 1")
		}
	}()
	set, err := keynav.NewSet(2, []geom.Point{geom.Pt(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	set.LabelAlong(q, []int32{0, 1})
}

func fullGrid(order uint) []geom.Point {
	side := geom.Side(order)
	pts := make([]geom.Point, 0, side*side)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	return pts
}

// BenchmarkLabelAlong measures one top-down labelling per curve at
// table12 scale (n = 15,625, p = 4,096) at orders 8 and 12.
func BenchmarkLabelAlong(b *testing.B) {
	for _, order := range []uint{8, 12} {
		const n, p = 15625, 4096
		set, err := keynav.NewSet(order, samplePoints(b, order, n, 1))
		if err != nil {
			b.Fatal(err)
		}
		ranks := make([]int32, n)
		for k := range ranks {
			ranks[k] = int32(partition.ChunkOf(k, n, p))
		}
		for _, c := range []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray} {
			b.Run(fmt.Sprintf("order%d/%s", order, c.Name()), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					set.LabelAlong(c.(sfc.Quadrants), ranks)
				}
			})
		}
	}
}
