package topology

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sfcacd/internal/sfc"
)

// randomTopology builds one of the families with a size derived from
// the seed byte.
func randomTopology(kind, size byte) Topology {
	switch kind % 6 {
	case 0:
		return NewBus(int(size%32) + 1)
	case 1:
		return NewRing(int(size%32) + 1)
	case 2:
		return NewMesh(uint(size%3)+1, sfc.Hilbert)
	case 3:
		return NewTorus(uint(size%3)+1, sfc.Gray)
	case 4:
		return NewHypercube(uint(size % 6))
	default:
		return NewQuadtreeNet(uint(size%3) + 1)
	}
}

// TestQuickMetricAxioms checks identity, symmetry, and the triangle
// inequality on random topologies and random rank triples.
func TestQuickMetricAxioms(t *testing.T) {
	f := func(kind, size byte, a, b, c uint16) bool {
		topo := randomTopology(kind, size)
		p := topo.P()
		x, y, z := int(a)%p, int(b)%p, int(c)%p
		if topo.Distance(x, x) != 0 {
			return false
		}
		if topo.Distance(x, y) != topo.Distance(y, x) {
			return false
		}
		if x != y && topo.Distance(x, y) <= 0 {
			return false
		}
		return topo.Distance(x, y) <= topo.Distance(x, z)+topo.Distance(z, y)
	}
	cfg := &quick.Config{MaxCount: 500}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickGridDistanceInvariantUnderPlacementForSamePositions: the
// placement curve permutes ranks but never changes the multiset of
// pairwise distances (it is a relabeling of the same physical grid).
func TestQuickPlacementIsRelabeling(t *testing.T) {
	f := func(seed byte) bool {
		order := uint(seed%2) + 1
		a := NewTorus(order, sfc.Hilbert)
		b := NewTorus(order, sfc.RowMajor)
		// Sum of all pairwise distances is placement-invariant.
		var sa, sb int
		for i := 0; i < a.P(); i++ {
			for j := 0; j < a.P(); j++ {
				sa += a.Distance(i, j)
				sb += b.Distance(i, j)
			}
		}
		return sa == sb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Error(err)
	}
}

// TestQuickHypercubeDistanceAlgebra: d(a,b) = popcount(a^b) implies
// d(a^m, b^m) = d(a,b) for any mask m (translation invariance).
func TestQuickHypercubeTranslationInvariant(t *testing.T) {
	h := NewHypercube(10)
	f := func(a, b, m uint16) bool {
		x, y, mask := int(a)%h.P(), int(b)%h.P(), int(m)%h.P()
		return h.Distance(x, y) == h.Distance(x^mask, y^mask)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestQuickQuadtreeUltrametric: the quadtree network distance is an
// ultrametric up to the factor-2 hop doubling:
// d(a,c) <= max(d(a,b), d(b,c)).
func TestQuickQuadtreeUltrametric(t *testing.T) {
	q := NewQuadtreeNet(5)
	f := func(a, b, c uint32) bool {
		x, y, z := int(a)%q.P(), int(b)%q.P(), int(c)%q.P()
		dxz := q.Distance(x, z)
		dxy := q.Distance(x, y)
		dyz := q.Distance(y, z)
		max := dxy
		if dyz > max {
			max = dyz
		}
		return dxz <= max
	}
	cfg := &quick.Config{
		MaxCount: 1000,
		Values: func(vals []reflect.Value, r *rand.Rand) {
			for i := range vals {
				vals[i] = reflect.ValueOf(uint32(r.Int63n(int64(q.P()))))
			}
		},
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickTorusBoundedByMesh: on the same placement the torus never
// exceeds the mesh distance and never beats it by more than the wrap
// saving.
func TestQuickTorusBoundedByMesh(t *testing.T) {
	mesh := NewMesh(3, sfc.Morton)
	torus := NewTorus(3, sfc.Morton)
	f := func(a, b uint16) bool {
		x, y := int(a)%mesh.P(), int(b)%mesh.P()
		dt, dm := torus.Distance(x, y), mesh.Distance(x, y)
		return dt <= dm && dm <= dt*int(mesh.Side())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPackedTorusLookupMatchesDistance pins the packed-code lookup,
// ((a|g) - b) & m into the hop table or, above torusLUTMaxSide, wrap
// arithmetic on the codes, against Torus.Distance: every rank pair at
// sides 1 to 16 and random pairs at sides 64, 256 (the largest table)
// and 512 (the fallback), through DistanceSumPairs on single pairs,
// which exposes the lookup per pair, and on whole batches from one
// source, and through every lane of a four-torus group on single-pair
// batches.
func TestPackedTorusLookupMatchesDistance(t *testing.T) {
	curves := []sfc.Curve{sfc.Hilbert, sfc.Morton, sfc.Gray, sfc.RowMajor}
	r := rand.New(rand.NewSource(19))
	for _, procOrder := range []uint{0, 1, 2, 3, 4, 6, 8, 9} {
		var tori []*Torus
		for _, c := range curves {
			tori = append(tori, NewTorus(procOrder, c))
		}
		g := NewTorusGroup(tori...)
		p := tori[0].P()
		srcs := make([]int, 0, p)
		all := procOrder <= 4
		if all {
			for a := 0; a < p; a++ {
				srcs = append(srcs, a)
			}
		} else {
			for range 8 {
				srcs = append(srcs, r.Intn(p))
			}
		}
		for _, a := range srcs {
			dsts := make([]int32, 0, p)
			if all {
				for b := 0; b < p; b++ {
					dsts = append(dsts, int32(b))
				}
			} else {
				for range 256 {
					dsts = append(dsts, int32(r.Intn(p)))
				}
			}
			src := make([]int32, len(dsts))
			for i := range src {
				src[i] = int32(a)
			}
			for l, tor := range tori {
				var want uint64
				for i, b := range dsts {
					d := tor.Distance(a, int(b))
					if got := tor.DistanceSumPairs(src[i:i+1], dsts[i:i+1]); got != uint64(d) {
						t.Fatalf("side %d lane %d: packed lookup (%d, %d) = %d, Distance %d", tor.side, l, a, b, got, d)
					}
					want += uint64(d)
				}
				if got := tor.DistanceSumPairs(src, dsts); got != want {
					t.Fatalf("side %d lane %d: DistanceSumPairs from %d over %d pairs = %d, Distance loop %d", tor.side, l, a, len(dsts), got, want)
				}
			}
			for _, b := range dsts {
				got := g.DistanceSumPairs([]int32{int32(a)}, []int32{b})
				for l, tor := range tori {
					if want := tor.Distance(a, int(b)); got[l] != uint64(want) {
						t.Fatalf("side %d lane %d: packed group lookup (%d, %d) = %d, Distance %d", tor.side, l, a, b, got[l], want)
					}
				}
			}
		}
	}
}
