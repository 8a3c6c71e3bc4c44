package topology

import (
	"slices"
	"testing"

	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestDistanceSumPairsMatchesDistance is the differential test for
// DistanceSumPairs and SumPairs: the batched sum over arbitrary (src,
// dst) pairs, one event each, must equal the per-pair Distance loop
// bit-for-bit, for every topology kind and for a torus above
// torusLUTMaxSide (no hop table), which price through their kernels,
// and for the 3D networks, which have none and price pair by pair, on
// empty and non-empty batches with equal-rank entries.
func TestDistanceSumPairsMatchesDistance(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	var topos []Topology
	for _, kind := range Kinds {
		topo, err := New(kind, 64, curve)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	if topos[slices.Index(Kinds, "torus")].(*Torus).hops == nil {
		t.Fatal("a side-8 torus built no hop table")
	}
	big := NewTorus(9, curve)
	if big.hops != nil {
		t.Fatal("a side-512 torus built a hop table")
	}
	topos = append(topos, big)
	kernels := len(topos)
	topos = append(topos, NewMesh3D(2, sfc.HilbertND{N: 3}), NewTorus3D(2, sfc.MortonND{N: 3}), NewOctreeNet(2))
	for i, topo := range topos {
		_, ok := topo.(interface {
			DistanceSumPairs(src, dst []int32) uint64
		})
		if ok != (i < kernels) {
			t.Fatalf("%s: has DistanceSumPairs %v, want %v", topo.Name(), ok, i < kernels)
		}
		p := topo.P()
		r := rng.New(uint64(60 + i))
		for _, n := range []int{0, 1, 7, 513} {
			src, dst := randomPairs(r, p, n)
			var want uint64
			for j := range src {
				want += uint64(topo.Distance(int(src[j]), int(dst[j])))
			}
			if got := SumPairs(topo, src, dst); got != want {
				t.Errorf("%s of %d: SumPairs over %d pairs = %d, want %d", topo.Name(), p, n, got, want)
			}
		}
	}
}

// randomPairs draws n rank pairs over p ranks, every fifth between equal
// ranks.
func randomPairs(r *rng.Rand, p, n int) (src, dst []int32) {
	src, dst = make([]int32, n), make([]int32, n)
	for j := range src {
		src[j], dst[j] = int32(r.Intn(p)), int32(r.Intn(p))
		if j%5 == 0 {
			dst[j] = src[j]
		}
	}
	return src, dst
}

// TestTorusGroupMatchesTori holds every lane of a torus group to its
// torus's own DistanceSumPairs, for groups of one to four tori of
// different placements, on both the hop-table and the arithmetic
// branch. A lane without a torus must price 0.
func TestTorusGroupMatchesTori(t *testing.T) {
	curves := []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray, sfc.RowMajor}
	for _, procOrder := range []uint{3, 9} {
		var tori []*Torus
		for _, c := range curves {
			tori = append(tori, NewTorus(procOrder, c))
		}
		r := rng.New(uint64(procOrder))
		for lanes := 1; lanes <= 4; lanes++ {
			g := NewTorusGroup(tori[:lanes]...)
			for _, n := range []int{0, 1, 7, 513} {
				src, dst := randomPairs(r, tori[0].P(), n)
				got := g.DistanceSumPairs(src, dst)
				for l := range got {
					var want uint64
					if l < lanes {
						want = tori[l].DistanceSumPairs(src, dst)
					}
					if got[l] != want {
						t.Errorf("side %d, %d lanes, %d pairs: lane %d = %d, want %d",
							tori[0].side, lanes, n, l, got[l], want)
					}
				}
			}
		}
	}
}

// TestTorusGroupRejectsMixedSides checks the constructor's contract: a
// group holds one to four tori of one side.
func TestTorusGroupRejectsMixedSides(t *testing.T) {
	a, b := NewTorus(2, sfc.Hilbert), NewTorus(3, sfc.Hilbert)
	for name, tori := range map[string][]*Torus{
		"none":       nil,
		"five":       {a, a, a, a, a},
		"mixed side": {a, b},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTorusGroup did not panic", name)
				}
			}()
			NewTorusGroup(tori...)
		}()
	}
}
