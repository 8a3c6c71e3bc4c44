// Batched distance sums. At millions of pairs the dynamic dispatch of
// one Distance call per pair — not the distance arithmetic — dominates,
// so these methods move the loop inside the topology: the caller pays
// one dynamic dispatch per batch and topology, and the distance math
// runs as a concrete, inlinable loop. DistanceSumPairs, implemented by
// all six topologies, prices the flush batches of the pair-stream
// pricer (internal/fmmmodel), the ACD path; the query volume is the
// caller's to account (CountDistanceQueries). DistanceSum and
// DistanceSumRows are the contraction fallback for matrix rows the
// DistanceTable declines to materialize.
package topology

import (
	"math/bits"

	"sfcacd/internal/geom"
)

// PairContractor is implemented by topologies that can contract a
// weighted batch of distance queries from one source in a single
// dynamic dispatch. DistanceSum returns
//
//	sum_i Distance(src, int(dsts[i])) * uint64(ns[i])
//
// exactly — the same integer a per-pair Distance loop produces. Every
// dsts entry must be a valid rank and ns must be at least as long as
// dsts. All six paper topologies implement it; the query volume is the
// caller's to account (topology.CountDistanceQueries), exactly as with
// per-pair Distance calls.
type PairContractor interface {
	DistanceSum(src int, dsts []int32, ns []uint32) uint64
}

// RowBlockContractor extends PairContractor to a block of CSR rows in
// one dynamic dispatch: row i has source srcs[i] and its pairs are
// dsts/ns[rowStart[i]:rowStart[i+1]] (rowStart has len(srcs)+1
// entries, indexing dsts and ns absolutely). DistanceSumRows returns
// the total weighted distance sum over the block — exactly the sum of
// per-row DistanceSum calls. Implemented by the topologies whose
// per-pair arithmetic is cheap enough that even a per-row dispatch is
// measurable at contraction volume.
type RowBlockContractor interface {
	PairContractor
	DistanceSumRows(srcs, rowStart, dsts []int32, ns []uint32) uint64
}

// DistanceSum implements PairContractor.
func (b *Bus) DistanceSum(src int, dsts []int32, ns []uint32) uint64 {
	checkRank(b, src)
	x := int32(src)
	var s uint64
	for i, d := range dsts {
		dd := d - x
		if dd < 0 {
			dd = -dd
		}
		s += uint64(uint32(dd)) * uint64(ns[i])
	}
	return s
}

// DistanceSum implements PairContractor.
func (r *Ring) DistanceSum(src int, dsts []int32, ns []uint32) uint64 {
	checkRank(r, src)
	x, n := int32(src), int32(r.n)
	var s uint64
	for i, d := range dsts {
		dd := d - x
		if dd < 0 {
			dd = -dd
		}
		if wrap := n - dd; wrap < dd {
			dd = wrap
		}
		s += uint64(uint32(dd)) * uint64(ns[i])
	}
	return s
}

// DistanceSum implements PairContractor.
func (m *Mesh) DistanceSum(src int, dsts []int32, ns []uint32) uint64 {
	checkRank(m, src)
	ca, coords := m.coords[src], m.coords
	ns = ns[:len(dsts)]
	var s uint64
	for i, d := range dsts {
		s += uint64(geom.Manhattan(ca, coords[d])) * uint64(ns[i])
	}
	return s
}

// DistanceSum implements PairContractor. With the delta table the loop
// is load-mask-load per pair: the coordinate deltas mod side (the mask
// is exact because the side is a power of two) index the precomputed
// wrapped hop count, so no per-pair branch can mispredict.
func (t *Torus) DistanceSum(src int, dsts []int32, ns []uint32) uint64 {
	checkRank(t, src)
	ca, coords := t.coords[src], t.coords
	ns = ns[:len(dsts)]
	var s uint64
	if dlut := t.dlut; dlut != nil {
		mask, shift := t.side-1, t.procOrder
		for i, d := range dsts {
			cb := coords[d]
			idx := (ca.Y-cb.Y)&mask<<shift | (ca.X-cb.X)&mask
			s += uint64(dlut[idx]) * uint64(ns[i])
		}
		return s
	}
	side := t.side
	for i, d := range dsts {
		cb := coords[d]
		hops := wrapDist(ca.X, cb.X, side) + wrapDist(ca.Y, cb.Y, side)
		s += uint64(hops) * uint64(ns[i])
	}
	return s
}

// DistanceSumRows implements RowBlockContractor.
func (t *Torus) DistanceSumRows(srcs, rowStart, dsts []int32, ns []uint32) uint64 {
	coords := t.coords
	var s uint64
	if dlut := t.dlut; dlut != nil {
		mask, shift := t.side-1, t.procOrder
		for r, src := range srcs {
			ca := coords[src]
			lo, hi := rowStart[r], rowStart[r+1]
			rd, rn := dsts[lo:hi], ns[lo:hi]
			rn = rn[:len(rd)]
			// Two independent partial sums per row break the
			// accumulator dependency chain (uint64 addition is
			// associative, so the split is exact).
			var rs0, rs1 uint64
			i := 0
			for ; i+1 < len(rd); i += 2 {
				cb0, cb1 := coords[rd[i]], coords[rd[i+1]]
				idx0 := (ca.Y-cb0.Y)&mask<<shift | (ca.X-cb0.X)&mask
				idx1 := (ca.Y-cb1.Y)&mask<<shift | (ca.X-cb1.X)&mask
				rs0 += uint64(dlut[idx0]) * uint64(rn[i])
				rs1 += uint64(dlut[idx1]) * uint64(rn[i+1])
			}
			if i < len(rd) {
				cb := coords[rd[i]]
				idx := (ca.Y-cb.Y)&mask<<shift | (ca.X-cb.X)&mask
				rs0 += uint64(dlut[idx]) * uint64(rn[i])
			}
			s += rs0 + rs1
		}
		return s
	}
	for r, src := range srcs {
		s += t.DistanceSum(int(src), dsts[rowStart[r]:rowStart[r+1]], ns[rowStart[r]:rowStart[r+1]])
	}
	return s
}

// DistanceSum implements PairContractor.
func (h *Hypercube) DistanceSum(src int, dsts []int32, ns []uint32) uint64 {
	checkRank(h, src)
	x := uint32(src)
	var s uint64
	for i, d := range dsts {
		s += uint64(bits.OnesCount32(x^uint32(d))) * uint64(ns[i])
	}
	return s
}

// DistanceSum implements PairContractor.
func (q *QuadtreeNet) DistanceSum(src int, dsts []int32, ns []uint32) uint64 {
	checkRank(q, src)
	x := uint32(src)
	var s uint64
	for i, d := range dsts {
		// bits.Len32(0) is 0, so the src == dst case contributes 0
		// digits without a branch, matching Distance.
		digits := (uint(bits.Len32(x^uint32(d))) + 1) / 2
		s += uint64(2*digits) * uint64(ns[i])
	}
	return s
}

// DistanceSumPairs returns sum_i Distance(src[i], dst[i]) * ns[i]
// exactly. Every entry must be a valid rank; dst and ns must be at
// least as long as src.
func (b *Bus) DistanceSumPairs(src, dst []int32, ns []uint32) uint64 {
	dst, ns = dst[:len(src)], ns[:len(src)]
	var s uint64
	for i, x := range src {
		d := dst[i] - x
		if d < 0 {
			d = -d
		}
		s += uint64(uint32(d)) * uint64(ns[i])
	}
	return s
}

// DistanceSumPairs is the ring's form of Bus.DistanceSumPairs.
func (r *Ring) DistanceSumPairs(src, dst []int32, ns []uint32) uint64 {
	dst, ns = dst[:len(src)], ns[:len(src)]
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
		s += uint64(uint32(d)) * uint64(ns[i])
	}
	return s
}

// DistanceSumPairs is the mesh's form of Bus.DistanceSumPairs.
func (m *Mesh) DistanceSumPairs(src, dst []int32, ns []uint32) uint64 {
	dst, ns = dst[:len(src)], ns[:len(src)]
	coords := m.coords
	var s uint64
	for i, x := range src {
		s += uint64(geom.Manhattan(coords[x], coords[dst[i]])) * uint64(ns[i])
	}
	return s
}

// DistanceSumPairs is the torus's form of Bus.DistanceSumPairs. Up to
// torusLUTMaxSide each pair is load-mask-load through the wrapped delta
// table, as in DistanceSum; larger tori take the per-pair wrap
// arithmetic.
func (t *Torus) DistanceSumPairs(src, dst []int32, ns []uint32) uint64 {
	dst, ns = dst[:len(src)], ns[:len(src)]
	coords := t.coords
	var s uint64
	if dlut := t.dlut; dlut != nil {
		mask, shift := t.side-1, t.procOrder
		for i, x := range src {
			ca, cb := coords[x], coords[dst[i]]
			s += uint64(dlut[(ca.Y-cb.Y)&mask<<shift|(ca.X-cb.X)&mask]) * uint64(ns[i])
		}
		return s
	}
	side := t.side
	for i, x := range src {
		ca, cb := coords[x], coords[dst[i]]
		s += uint64(wrapDist(ca.X, cb.X, side)+wrapDist(ca.Y, cb.Y, side)) * uint64(ns[i])
	}
	return s
}

// DistanceSumPairs is the hypercube's form of Bus.DistanceSumPairs.
func (h *Hypercube) DistanceSumPairs(src, dst []int32, ns []uint32) uint64 {
	dst, ns = dst[:len(src)], ns[:len(src)]
	var s uint64
	for i, x := range src {
		s += uint64(bits.OnesCount32(uint32(x)^uint32(dst[i]))) * uint64(ns[i])
	}
	return s
}

// DistanceSumPairs is the quadtree network's form of Bus.DistanceSumPairs.
func (q *QuadtreeNet) DistanceSumPairs(src, dst []int32, ns []uint32) uint64 {
	dst, ns = dst[:len(src)], ns[:len(src)]
	var s uint64
	for i, x := range src {
		// As in DistanceSum, equal ranks contribute 0 digits.
		digits := (uint(bits.Len32(uint32(x)^uint32(dst[i]))) + 1) / 2
		s += uint64(2*digits) * uint64(ns[i])
	}
	return s
}
