package keynav

import (
	"slices"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
)

// sampleCells draws n distinct cells at the given order, owned in
// sampling order by 64 ranks.
func sampleCells(t *testing.T, order uint, n int, seed uint64) ([]geom.Point, []int32) {
	t.Helper()
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i * 64 / n)
	}
	return pts, ranks
}

// sameAsFresh fails unless every level of ix equals that of an index
// built from scratch over the same inputs.
func sameAsFresh(t *testing.T, name string, ix *Index, order uint, pts []geom.Point, ranks []int32) {
	t.Helper()
	fresh := new(Index)
	fresh.Rebuild(order, pts, ranks)
	if ix.Order != order || len(ix.lv) != len(fresh.lv) {
		t.Fatalf("%s: order %d with %d levels, want %d with %d", name, ix.Order, len(ix.lv), order, len(fresh.lv))
	}
	if !slices.Equal(ix.keys, fresh.keys) || !slices.Equal(ix.ranks, fresh.ranks) {
		t.Fatalf("%s: particle keys or ranks differ from a fresh build", name)
	}
	for l := range fresh.lv {
		got, want := &ix.lv[l], &fresh.lv[l]
		if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.reps, want.reps) ||
			!slices.Equal(got.childStart, want.childStart) || !slices.Equal(got.dir, want.dir) || got.shift != want.shift {
			t.Fatalf("%s: level %d differs from a fresh build", name, l)
		}
	}
}

// TestIndexPooledAcrossOrders rebuilds recycled indexes at mixed
// orders — through the build pool and in place — and requires every
// level to equal a fresh build. A recycled index's old finest level
// must not share the particle arrays once it becomes a coarser level.
func TestIndexPooledAcrossOrders(t *testing.T) {
	const n = 3000
	pts8, ranks8 := sampleCells(t, 8, n, 1)
	pts12, ranks12 := sampleCells(t, 12, n, 2)
	type step struct {
		order uint
		pts   []geom.Point
		ranks []int32
	}
	s8, s12 := step{8, pts8, ranks8}, step{12, pts12, ranks12}
	for name, seq := range map[string][]step{
		"8-12":    {s8, s12},
		"12-8-12": {s12, s8, s12},
	} {
		for _, s := range seq {
			ix := Build(s.order, s.pts, s.ranks)
			sameAsFresh(t, name+" pooled", ix, s.order, s.pts, s.ranks)
			ix.Release()
		}
		ix := new(Index)
		for _, s := range seq {
			ix.Rebuild(s.order, s.pts, s.ranks)
			sameAsFresh(t, name+" in place", ix, s.order, s.pts, s.ranks)
		}
	}
}
