// Package keynav is the key-space neighbor engine: it answers the
// neighbor and interaction-list queries of the FMM communication model
// by arithmetic on a radix-sorted array of Morton keys, in the style
// of Holzmüller's algebraic neighbor-finding, instead of probing a
// dense rank table or walking a quadtree.
//
// The Index holds every particle as a (Morton key, rank) pair sorted
// by key, searched through a small top-level radix directory that cuts
// a binary search to a couple of iterations inside one cache line.
// On top of the sorted finest level, each coarser level is one linear
// scan: the level-l key of a cell is its finest key shifted right by
// 2(Order-l), so the particles of a cell form a contiguous prefix
// group and the cell's representative (minimum owning rank, the §III
// convention) is the group minimum. The per-level slabs replace
// quadtree.RankTree's dense 4^l arrays: memory is proportional to the
// number of occupied cells, not to the grid.
//
// The index is the only neighbor engine: acd.Assignment.RankAt and
// both matrix passes of internal/fmmmodel answer through it. Its
// enumeration records a Plan: the near-field and interaction-list cell
// pairs as slab positions (a cell's index in its level's sorted key
// array). Positions depend only on which cells are occupied, so one
// plan serves every assignment of a particle set, replayed against
// each index's per-level representatives (Reps); the parent-child
// links need no plan (ChildStart). The oracles live in the tests:
// quadtree.RankTree for the per-level queries and a cell->rank map
// built from the assignment's arrays for the finest level. For every
// query family here a test pins exact equality of the replayed event
// multisets against that enumeration.
package keynav

import (
	"fmt"
	"math/bits"
	"sync"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
)

var buildCounter = obs.GetCounter("keynav.builds")

// level is one resolution level of the index: occupied cells as sorted
// level keys, their representative ranks, the start of each cell's
// child group in the next-finer level, and a radix directory over the
// keys. At the finest level keys/reps alias the particle arrays and
// childStart is nil.
type level struct {
	keys       []uint64
	reps       []int32
	childStart []int32 // len(keys)+1; indices into the next-finer level
	dir        []int32 // len (1<<dirBits)+1; bucket b covers dir[b]..dir[b+1]
	shift      uint    // key -> directory bucket shift
}

// find returns the position of key k in the level, or -1. The
// directory narrows the search to one bucket (a few entries), so the
// binary search typically resolves within a single cache line.
func (lv *level) find(k uint64) int {
	b := k >> lv.shift
	lo, hi := int(lv.dir[b]), int(lv.dir[b+1])
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lv.keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(lv.keys) && lv.keys[lo] == k {
		return lo
	}
	return -1
}

// lowerBound returns the first position whose key is >= k (len(keys)
// if none), narrowed through the directory like find.
func (lv *level) lowerBound(k uint64) int {
	b := k >> lv.shift
	lo, hi := int(lv.dir[b]), int(lv.dir[b+1])
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lv.keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// buildDir (re)builds the level's radix directory for the given total
// key width in bits.
func (lv *level) buildDir(keyBits uint) {
	db := dirBits(len(lv.keys), keyBits)
	lv.shift = keyBits - db
	size := (1 << db) + 1
	lv.dir = grow(lv.dir, size)
	for i := range lv.dir {
		lv.dir[i] = 0
	}
	// Count per bucket (shifted one slot so the prefix sum lands on
	// bucket starts), then accumulate.
	for _, k := range lv.keys {
		lv.dir[(k>>lv.shift)+1]++
	}
	for i := 1; i < size; i++ {
		lv.dir[i] += lv.dir[i-1]
	}
}

// dirBits sizes a directory at roughly one bucket per four keys,
// bounded by the key width and a 4M-entry cap.
func dirBits(n int, keyBits uint) uint {
	b := uint(bits.Len(uint(n)))
	if b > 2 {
		b -= 2
	} else {
		b = 0
	}
	if b > keyBits {
		b = keyBits
	}
	if b > 22 {
		b = 22
	}
	return b
}

// grow returns s resized to n, reallocating only when the capacity is
// short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Index is the key-space occupancy index of one assignment: particles
// as sorted (Morton key, rank) pairs plus the per-level representative
// slabs. Build with Build; recycle with Release.
type Index struct {
	// Order is the finest resolution order (grid side 2^Order).
	Order uint
	// lv[l] holds level l; lv[Order] is the particle level.
	lv []level
	// keys/ranks back the finest level (also aliased by lv[Order]).
	keys  []uint64
	ranks []int32
}

// indexPool recycles Index slabs between builds: parallel sweep cells
// each build one per assignment, so pooling keeps the allocator out of
// the sweep hot path.
var indexPool = sync.Pool{New: func() any { return new(Index) }}

// Build constructs the index from particle cells and their owning
// ranks (parallel slices, as held by acd.Assignment). The inputs are
// not modified and not retained.
func Build(order uint, pts []geom.Point, ranks []int32) *Index {
	ix := indexPool.Get().(*Index)
	ix.Rebuild(order, pts, ranks)
	return ix
}

// Rebuild refills the index in place from new particle data, reusing
// every slab the previous build left behind. The incremental pipeline
// holds one Index per maintained curve across timesteps and rebuilds
// it on repartition ticks; in-place reuse keeps those rebuilds out of
// both the allocator and the shared build pool.
func (ix *Index) Rebuild(order uint, pts []geom.Point, ranks []int32) {
	if len(pts) != len(ranks) {
		panic("keynav: pts and ranks length mismatch")
	}
	defer obs.StartSpan("keybuild").End()
	buildCounter.Inc()
	// The previous finest level's slabs alias ix.keys/ix.ranks. At
	// another order that slot becomes a coarser level, whose appends
	// would then overwrite the new finest keys: detach it first, so no
	// level but the finest ever shares the particle arrays.
	if int(ix.Order) < len(ix.lv) {
		ix.lv[ix.Order].keys, ix.lv[ix.Order].reps = nil, nil
	}
	n := len(pts)
	ix.Order = order
	ix.keys = grow(ix.keys, n)
	ix.ranks = grow(ix.ranks, n)
	sorted := true
	for i, p := range pts {
		k := sfc.MortonKey(p.X, p.Y)
		ix.keys[i] = k
		ix.ranks[i] = ranks[i]
		if i > 0 && k < ix.keys[i-1] {
			sorted = false
		}
	}
	// Morton particle order arrives sorted; the other curves pay one
	// radix pair sort.
	if !sorted {
		sortPairs(ix.keys, ix.ranks, 2*order)
	}
	ix.buildLevels()
}

// buildLevels derives every coarser level from the finest by one
// linear scan per level over right-shifted keys, taking prefix-group
// minima as representatives.
func (ix *Index) buildLevels() {
	order := ix.Order
	if cap(ix.lv) < int(order)+1 {
		lv := make([]level, order+1)
		copy(lv, ix.lv)
		ix.lv = lv
	}
	ix.lv = ix.lv[:order+1]
	fin := &ix.lv[order]
	fin.keys, fin.reps, fin.childStart = ix.keys, ix.ranks, nil
	fin.buildDir(2 * order)
	for l := int(order) - 1; l >= 0; l-- {
		src := &ix.lv[l+1]
		dst := &ix.lv[l]
		// A parent has at least one child, so the level can only
		// shrink; sizing at the child count avoids a counting pass.
		dst.keys = grow(dst.keys, len(src.keys))[:0]
		dst.reps = grow(dst.reps, len(src.keys))[:0]
		dst.childStart = grow(dst.childStart, len(src.keys)+1)[:0]
		for i, k := range src.keys {
			pk := k >> 2
			if j := len(dst.keys) - 1; j >= 0 && dst.keys[j] == pk {
				if r := src.reps[i]; r < dst.reps[j] {
					dst.reps[j] = r
				}
				continue
			}
			dst.keys = append(dst.keys, pk)
			dst.reps = append(dst.reps, src.reps[i])
			dst.childStart = append(dst.childStart, int32(i))
		}
		dst.childStart = append(dst.childStart, int32(len(src.keys)))
		dst.buildDir(2 * uint(l))
	}
}

// Release returns the index's slabs to the build pool. The index must
// not be used afterwards. Only owners that know the index is dead (the
// sweep scheduler's cells, via acd.Assignment.Release) should call it.
func (ix *Index) Release() {
	if ix == nil {
		return
	}
	indexPool.Put(ix)
}

// N returns the particle count.
func (ix *Index) N() int { return len(ix.keys) }

// LevelLen returns the number of occupied cells at a level.
func (ix *Index) LevelLen(l uint) int { return len(ix.lv[l].keys) }

// Reps returns the representative ranks of level l's occupied cells in
// slab order: the ranks a Plan's slab positions index. The slice
// belongs to the index and must not be modified.
func (ix *Index) Reps(l uint) []int32 { return ix.lv[l].reps }

// ChildStart returns, for level l < Order, where each occupied cell's
// child group starts in level l+1's slab (LevelLen(l)+1 entries, the
// last one LevelLen(l+1)): the parent-child links of the interpolation
// stream, which no Plan needs to store. The slice belongs to the index
// and must not be modified.
func (ix *Index) ChildStart(l uint) []int32 { return ix.lv[l].childStart }

// RankAt returns the rank owning the particle in the given finest cell,
// or -1 if the cell is empty or outside the grid (whose Morton key
// would fall outside the level directory).
func (ix *Index) RankAt(p geom.Point) int32 {
	if side := geom.Side(ix.Order); p.X >= side || p.Y >= side {
		return -1
	}
	fin := &ix.lv[ix.Order]
	if i := fin.find(sfc.MortonKey(p.X, p.Y)); i >= 0 {
		return fin.reps[i]
	}
	return -1
}

// Rep returns the representative (minimum) rank of cell (x, y) at the
// given level, or -1 if the cell is empty — the RankTree.Rep oracle's
// signature, answered by key search.
func (ix *Index) Rep(l uint, x, y uint32) int32 {
	if l > ix.Order {
		panic(fmt.Sprintf("keynav: level %d beyond order %d", l, ix.Order))
	}
	side := geom.Side(l)
	if x >= side || y >= side {
		panic(fmt.Sprintf("keynav: cell (%d,%d) outside level %d", x, y, l))
	}
	if i := ix.lv[l].find(sfc.MortonKey(x, y)); i >= 0 {
		return ix.lv[l].reps[i]
	}
	return -1
}

// nearScan bounds the forward scan of a neighbor probe before it
// falls back to the directory search: eight keys is one cache line of
// the sorted array.
const nearScan = 8

// upperNeighborPairs appends to out, for every particle position i in
// [lo, hi), a Pair{i, j} for every occupied cell j within metric
// distance radius of i's cell that follows it in row-major order. The
// enumeration mirrors geom.VisitUpperNeighborhood exactly (same
// clamping at the grid edges), so over the full particle range the
// pairs are the near-field upper event stream. Neighbor cells are
// reached by dilated-integer arithmetic on the key and resolved against
// the sorted array.
func (ix *Index) upperNeighborPairs(lo, hi, radius int, m geom.Metric, out []Pair) []Pair {
	if radius <= 0 {
		return out
	}
	side := int(geom.Side(ix.Order))
	fin := &ix.lv[ix.Order]
	keys := fin.keys
	n := len(keys)
	for i := lo; i < hi; i++ {
		x, y := sfc.MortonCoords(keys[i])
		for dy := 0; dy <= radius; dy++ {
			yq := int(y) + dy
			if yq >= side {
				break
			}
			span := radius
			if m == geom.MetricManhattan {
				span = radius - dy
			}
			x0 := int(x) - span
			if dy == 0 {
				x0 = int(x) + 1
			}
			if x0 < 0 {
				x0 = 0
			}
			x1 := int(x) + span
			if x1 >= side {
				x1 = side - 1
			}
			ypart := sfc.MortonYPart(uint32(yq))
			xpart := sfc.MortonXPart(uint32(x0))
			// A row's targets ascend in key order, and nearby cells
			// mostly sit a few positions after the particle's own, so a
			// cursor c starting at i rides the row: each target's lower
			// bound is found by a short forward scan from the cursor,
			// with the directory as the fallback.
			c := i
			for xq := x0; xq <= x1; xq++ {
				kt := ypart | xpart
				xpart = sfc.MortonIncX(xpart)
				j := c + 1
				if kt <= keys[c] {
					j = fin.lowerBound(kt)
				} else {
					end := min(j+nearScan, n)
					for j < end && keys[j] < kt {
						j++
					}
					if j == end && end < n {
						j = fin.lowerBound(kt)
					}
				}
				if j == n {
					// Every key is below kt: the rest of the row is
					// unoccupied.
					break
				}
				if keys[j] == kt {
					out = append(out, Pair{int32(i), int32(j)})
					c = j
				} else {
					c = max(j-1, 0)
				}
			}
		}
	}
	return out
}

// parentUpper lists the row-major-upper neighbor offsets of a parent
// cell; visiting each unordered pair of Chebyshev-adjacent parents
// exactly once partitions the interaction lists, because every
// interaction-list pair at level l lives between two distinct adjacent
// cells at level l-1 (children of one parent are mutually adjacent and
// never in each other's lists).
var parentUpper = [4]struct{ dx, dy int32 }{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// ilCross[o][sa] is the bitmask of child sub-positions sb of the o-th
// upper parent neighbor whose cells are interaction-list partners
// (Chebyshev distance > 1) of the child at sub-position sa. Sub
// positions are the low two key bits: bit 0 = x, bit 1 = y.
var ilCross [4][4]uint8

// sibDelta[sa][o] is the key delta of the o-th upper parent neighbor
// when it stays inside sa's aligned sibling quad (0 when the offset
// crosses the quad boundary and needs a directory probe): incrementing
// an even coordinate only sets the low dilated bit, so the sibling's
// key is the parent's plus the sub-position difference.
var sibDelta = [4][4]uint8{
	{1, 0, 2, 3}, // (even, even): +x, +y, and +x+y are siblings
	{0, 1, 2, 0}, // (odd, even): -x+y and +y are siblings
	{1, 0, 0, 0}, // (even, odd): +x is a sibling
	{0, 0, 0, 0}, // (odd, odd): every upper offset leaves the quad
}

func init() {
	for o, off := range parentUpper {
		for sa := 0; sa < 4; sa++ {
			for sb := 0; sb < 4; sb++ {
				dx := int(2*off.dx) + sb&1 - sa&1
				dy := int(2*off.dy) + sb>>1 - sa>>1
				if max(abs(dx), abs(dy)) > 1 {
					ilCross[o][sa] |= 1 << sb
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// upperILPairs appends to out one Pair of level-l positions for every
// unordered interaction-list pair of occupied cells at level l >= 2
// whose parents lie in positions [plo, phi) of level l-1 (the pair is
// attributed to its row-major-lower parent). Instead of scanning the
// 6x6 candidate window around every cell, the pass enumerates adjacent
// parent pairs — four upper neighbor probes per occupied parent — and
// crosses their child groups, which are contiguous runs of the level-l
// slab, filtering sibling-adjacency by the precomputed ilCross masks.
func (ix *Index) upperILPairs(l uint, plo, phi int, out []Pair) []Pair {
	if l < 2 {
		return out
	}
	par := &ix.lv[l-1]
	ch := &ix.lv[l]
	pside := int32(geom.Side(l - 1))
	for j := plo; j < phi; j++ {
		kj := par.keys[j]
		px, py := sfc.MortonCoords(kj)
		aLo, aHi := par.childStart[j], par.childStart[j+1]
		sa := kj & 3
		for o, off := range parentUpper {
			var jq int
			if d := sibDelta[sa][o]; d != 0 {
				// The neighbor is a sibling within the same aligned
				// 2x2 quad (always inside the grid): its key is kj+d,
				// and the only keys in (kj, kj+3] are siblings, so the
				// next <= 3 slab entries decide occupancy without a
				// directory probe.
				kt := kj + uint64(d)
				jq = -1
				for t := j + 1; t < len(par.keys) && par.keys[t] <= kt; t++ {
					if par.keys[t] == kt {
						jq = t
						break
					}
				}
			} else {
				qx := int32(px) + off.dx
				qy := int32(py) + off.dy
				if qx < 0 || qx >= pside || qy >= pside {
					continue
				}
				jq = par.find(sfc.MortonKey(uint32(qx), uint32(qy)))
			}
			if jq < 0 {
				continue
			}
			bLo, bHi := par.childStart[jq], par.childStart[jq+1]
			for ai := aLo; ai < aHi; ai++ {
				bm := ilCross[o][ch.keys[ai]&3]
				for bi := bLo; bi < bHi; bi++ {
					if bm>>(ch.keys[bi]&3)&1 != 0 {
						out = append(out, Pair{ai, bi})
					}
				}
			}
		}
	}
	return out
}
