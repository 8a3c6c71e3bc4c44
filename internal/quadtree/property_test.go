package quadtree

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
)

// TestQuickRankTreeMinProperty: for random particle/rank sets, every
// cell's representative is the minimum rank among the particles it
// contains, at every level.
func TestQuickRankTreeMinProperty(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 40,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			vals[0] = reflect.ValueOf(r.Uint64())
			vals[1] = reflect.ValueOf(uint8(r.Intn(64)))
		},
	}
	f := func(seed uint64, nRaw uint8) bool {
		const order = 4
		n := int(nRaw)%50 + 1
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
		if err != nil {
			return false
		}
		ranks := make([]int32, n)
		rr := rng.New(seed ^ 0xABCD)
		for i := range ranks {
			ranks[i] = int32(rr.Intn(16))
		}
		tree := BuildRankTree(order, pts, ranks)
		for level := uint(0); level <= order; level++ {
			shift := order - level
			side := geom.Side(level)
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					want := int32(-1)
					for i, p := range pts {
						if p.X>>shift == x && p.Y>>shift == y {
							if want == -1 || ranks[i] < want {
								want = ranks[i]
							}
						}
					}
					if tree.Rep(level, x, y) != want {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
