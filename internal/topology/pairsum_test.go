package topology

import (
	"fmt"
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
// different placements at every processor order from 0 to 9: packed
// words up to groupMaxOrder, the per-torus hop table at 8 and the
// arithmetic at 9. Beside random pairs, each group prices pairs whose
// y delta borrows in every lane, which a lane without its y guard
// would pass into the next lane. A lane without a torus must price 0.
func TestTorusGroupMatchesTori(t *testing.T) {
	curves := []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray, sfc.RowMajor}
	for procOrder := uint(0); procOrder <= 9; procOrder++ {
		var tori []*Torus
		for _, c := range curves {
			tori = append(tori, NewTorus(procOrder, c))
		}
		if packed := NewTorusGroup(tori...).words != nil; packed != (procOrder <= groupMaxOrder) {
			t.Fatalf("procOrder %d: packed words %v", procOrder, packed)
		}
		r := rng.New(uint64(procOrder))
		for lanes := 1; lanes <= 4; lanes++ {
			g := NewTorusGroup(tori[:lanes]...)
			batches := [][2][]int32{}
			for _, n := range []int{0, 1, 7, 513} {
				src, dst := randomPairs(r, tori[0].P(), n)
				batches = append(batches, [2][]int32{src, dst})
			}
			if procOrder > 0 {
				batches = append(batches, borrowPairs(t, r, tori[:lanes]))
			}
			for _, b := range batches {
				src, dst := b[0], b[1]
				got := g.DistanceSumPairs(src, dst)
				for l := range got {
					var want uint64
					if l < lanes {
						want = tori[l].DistanceSumPairs(src, dst)
					}
					if got[l] != want {
						t.Errorf("side %d, %d lanes, %d pairs: lane %d = %d, want %d",
							tori[0].side, lanes, len(src), l, got[l], want)
					}
				}
			}
		}
	}
}

// borrowPairs returns rank pairs whose y delta borrows on every one of
// the tori, the source's y being below the destination's: every such
// pair for p <= 256 and 64 random ones above. Only at side 2 may there
// be none: no two ranks of the four placements there are such a pair.
func borrowPairs(t *testing.T, r *rng.Rand, tori []*Torus) [2][]int32 {
	p := tori[0].P()
	var src, dst []int32
	add := func(a, b int) {
		for _, tor := range tori {
			if tor.Coord(a).Y >= tor.Coord(b).Y {
				return
			}
		}
		src, dst = append(src, int32(a)), append(dst, int32(b))
	}
	if p <= 256 {
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				add(a, b)
			}
		}
	} else {
		for tries := 0; len(src) < 64 && tries < 1<<20; tries++ {
			add(r.Intn(p), r.Intn(p))
		}
	}
	if len(src) == 0 && tori[0].side > 2 {
		t.Fatalf("side %d: no pair borrows on %d tori", tori[0].side, len(tori))
	}
	return [2][]int32{src, dst}
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

// BenchmarkTorusGroup times one four-torus group over 512-pair batches
// of nearby ranks (each destination within 16 ranks of its source, the
// shape of a curve-ordered near field), at p = 1,024 and 4,096, which
// price from packed words, and at p = 65,536, above groupMaxOrder,
// which prices the tori one at a time. It reports ns per event, an
// event being one pair priced on all four tori.
func BenchmarkTorusGroup(b *testing.B) {
	const batch, batches = 512, 64
	curves := []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray, sfc.RowMajor}
	for _, procOrder := range []uint{5, 6, 8} {
		var tori []*Torus
		for _, c := range curves {
			tori = append(tori, NewTorus(procOrder, c))
		}
		g := NewTorusGroup(tori...)
		p := int32(tori[0].P())
		r := rng.New(uint64(procOrder))
		src, dst := make([]int32, batch*batches), make([]int32, batch*batches)
		for i := range src {
			src[i] = int32(r.Intn(int(p)))
			d := int32(r.Intn(16)) + 1
			if r.Intn(2) == 0 {
				d = -d
			}
			dst[i] = min(max(src[i]+d, 0), p-1)
		}
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var sink uint64
			for k := 0; k < b.N; k++ {
				for lo := 0; lo < len(src); lo += batch {
					s := g.DistanceSumPairs(src[lo:lo+batch], dst[lo:lo+batch])
					sink += s[0] + s[1] + s[2] + s[3]
				}
			}
			if sink == 0 {
				b.Fatal("every batch priced 0")
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/event")
		})
	}
}
