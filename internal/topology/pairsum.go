// Batched distance sums. At millions of events the dynamic dispatch of
// one Distance call per event — not the distance arithmetic — dominates,
// so these methods move the loop inside the topology: the caller pays
// one dynamic dispatch per batch and topology, and the distance math
// runs as a concrete, inlinable loop. DistanceSumPairs, implemented by
// all six topologies, prices the flush batches of the replay pricer
// (internal/fmmmodel) and of the incremental maintainer (internal/incr),
// one event per pair, both through SumPairs; TorusGroup prices such a
// batch on four tori of p <= 16,384 in one pass, from one packed word
// per rank, and on larger tori one torus at a time. The query volume
// is the caller's to account (CountDistanceQueries).
package topology

import (
	"fmt"
	"math/bits"
	"slices"

	"sfcacd/internal/geom"
)

// SumPairs returns sum_i t.Distance(src[i], dst[i]) exactly, under the
// contract of Bus.DistanceSumPairs: through t's DistanceSumPairs kernel
// where it has one, and one Distance call per pair where it has none
// (the 3D networks).
func SumPairs(t Topology, src, dst []int32) uint64 {
	if k, ok := t.(interface {
		DistanceSumPairs(src, dst []int32) uint64
	}); ok {
		return k.DistanceSumPairs(src, dst)
	}
	dst = dst[:len(src)]
	var s uint64
	for i, r := range src {
		s += uint64(t.Distance(int(r), int(dst[i])))
	}
	return s
}

// DistanceSumPairs returns sum_i Distance(src[i], dst[i]) exactly: each
// pair is one event. Every entry must be a valid rank, and dst must be
// at least as long as src.
func (b *Bus) DistanceSumPairs(src, dst []int32) uint64 {
	dst = dst[:len(src)]
	var s uint64
	for i, x := range src {
		d := dst[i] - x
		if d < 0 {
			d = -d
		}
		s += uint64(uint32(d))
	}
	return s
}

// DistanceSumPairs is the ring's form of Bus.DistanceSumPairs.
func (r *Ring) DistanceSumPairs(src, dst []int32) uint64 {
	dst = dst[:len(src)]
	n := int32(r.n)
	var s uint64
	for i, x := range src {
		d := dst[i] - x
		if d < 0 {
			d = -d
		}
		if wrap := n - d; wrap < d {
			d = wrap
		}
		s += uint64(uint32(d))
	}
	return s
}

// DistanceSumPairs is the mesh's form of Bus.DistanceSumPairs.
func (m *Mesh) DistanceSumPairs(src, dst []int32) uint64 {
	dst = dst[:len(src)]
	coords := m.coords
	var s uint64
	for i, x := range src {
		s += uint64(geom.Manhattan(coords[x], coords[dst[i]]))
	}
	return s
}

// DistanceSumPairs is the torus's form of Bus.DistanceSumPairs: one
// branch-free hop-table load per pair up to torusLUTMaxSide, indexed
// by the packed-code difference (see Torus), and wrap arithmetic on
// the packed codes above it.
func (t *Torus) DistanceSumPairs(src, dst []int32) uint64 {
	dst = dst[:len(src)]
	codes, g := t.codes, t.guard
	var s uint64
	if hops, m := t.hops, t.mask; hops != nil {
		for i, x := range src {
			s += uint64(hops[((codes[x]|g)-codes[dst[i]])&m])
		}
		return s
	}
	for i, x := range src {
		s += t.codeHops(codes[x], codes[dst[i]])
	}
	return s
}

// DistanceSumPairs is the hypercube's form of Bus.DistanceSumPairs.
func (h *Hypercube) DistanceSumPairs(src, dst []int32) uint64 {
	dst = dst[:len(src)]
	var s uint64
	for i, x := range src {
		s += uint64(bits.OnesCount32(uint32(x) ^ uint32(dst[i])))
	}
	return s
}

// DistanceSumPairs is the quadtree network's form of Bus.DistanceSumPairs.
func (q *QuadtreeNet) DistanceSumPairs(src, dst []int32) uint64 {
	dst = dst[:len(src)]
	var s uint64
	for i, x := range src {
		// bits.Len32(0) is 0, so equal ranks contribute 0 digits
		// without a branch, matching Distance.
		digits := (uint(bits.Len32(uint32(x)^uint32(dst[i]))) + 1) / 2
		s += uint64(2 * digits)
	}
	return s
}

// TorusGroup prices one pair batch on up to four tori of one side in a
// single pass. Each torus is a lane of a rank's packed word: lane l,
// bits [16l, 16l+16), holds the rank's code on lane l's torus (see
// Torus) with a second guard bit above the y field: x in [0, s), a
// guard bit at s, y in [s+1, 2s+1) and a guard bit at 2s+1, s being
// procOrder. For words a and b, ((a|G) - b) & M, G being every lane's
// guard bits and M every lane's fields, holds each lane's hop-table
// index: the x guard absorbs the x field's borrow, as in Torus, and the
// y guard the y field's, which would otherwise run into the next lane.
// So a pair costs two word loads and one load per lane from the hop
// table, which every lane shares because it depends only on the side.
// A lane without a torus holds code 0 at every rank and prices 0. A
// lane takes 2s+2 bits, so the group packs words while s <=
// groupMaxOrder; above it, it keeps none and prices its tori one at a
// time.
type TorusGroup struct {
	tori []*Torus
	// words[r] is rank r's packed word; nil above groupMaxOrder.
	words       []uint64
	guard, mask uint64 // G and M above
	// hops is the tori's shared hop table. Every lane index is below
	// groupHops, so a constant mask keeps the loads free of bounds
	// checks.
	hops *[groupHops]uint16
}

const (
	// groupMaxOrder is the largest processor order whose packed code,
	// two guard bits included, fits a 16-bit lane.
	groupMaxOrder = 7
	// groupHops bounds a lane's hop-table index, 2s+1 bits at s =
	// groupMaxOrder; every torus hop table holds at least this many
	// entries.
	groupHops = 1 << (2*groupMaxOrder + 1)
)

// everyLane repeats a 16-bit lane value in all four lanes of a word.
const everyLane = 0x0001_0001_0001_0001

// NewTorusGroup groups one to four tori of one side. The packed words
// cost 8 bytes per rank: 32 KiB at p = 4,096.
func NewTorusGroup(tori ...*Torus) *TorusGroup {
	if len(tori) == 0 || len(tori) > 4 {
		panic(fmt.Sprintf("topology: a torus group holds 1 to 4 tori, got %d", len(tori)))
	}
	g := &TorusGroup{tori: slices.Clone(tori)}
	for _, t := range tori {
		if t.side != tori[0].side {
			panic(fmt.Sprintf("topology: torus group of side %d given a torus of side %d", tori[0].side, t.side))
		}
	}
	t := tori[0]
	if t.procOrder > groupMaxOrder {
		return g
	}
	g.guard = uint64(t.guard|t.guard<<(t.procOrder+1)) * everyLane
	g.mask = uint64(t.mask) * everyLane
	g.hops = (*[groupHops]uint16)(t.hops)
	g.words = make([]uint64, t.P())
	for l, t := range tori {
		for r, c := range t.codes {
			g.words[r] |= uint64(c) << (16 * l)
		}
	}
	return g
}

// DistanceSumPairs returns, for each lane l, sum_i Distance(src[i],
// dst[i]) on its torus exactly, under the contract of
// Bus.DistanceSumPairs. Above groupMaxOrder each torus prices the
// batch on its own.
func (g *TorusGroup) DistanceSumPairs(src, dst []int32) [4]uint64 {
	words := g.words
	if words == nil {
		var s [4]uint64
		for l, t := range g.tori {
			s[l] = t.DistanceSumPairs(src, dst)
		}
		return s
	}
	dst = dst[:len(src)]
	hops, gd, m := g.hops, g.guard, g.mask
	const lane = groupHops - 1
	var s0, s1, s2, s3 uint64
	for i, x := range src {
		d := ((words[x] | gd) - words[dst[i]]) & m
		s0 += uint64(hops[d&lane])
		s1 += uint64(hops[d>>16&lane])
		s2 += uint64(hops[d>>32&lane])
		s3 += uint64(hops[d>>48&lane])
	}
	return [4]uint64{s0, s1, s2, s3}
}
