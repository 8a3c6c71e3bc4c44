// Package keynav is the key-space neighbor engine: it answers the
// neighbor and interaction-list queries of the FMM communication model
// by arithmetic on a radix-sorted array of Morton keys, in the style
// of Holzmüller's algebraic neighbor-finding, instead of probing a
// dense rank table or walking a quadtree.
//
// The engine splits what depends only on where the particles are from
// what depends on who owns them. A Set is the skeleton of one particle
// set: every occupied cell of every level as a sorted Morton key array
// (a cell's index in it is its slab position), searched through a
// small top-level radix directory that cuts a binary search to a
// couple of iterations inside one cache line. The level-l key of a
// cell is its finest key shifted right by 2(Order-l), so each coarser
// level is one linear scan of the finer one, and a parent's children
// form a contiguous run of the finer slab (ChildStart). Memory is
// proportional to the number of occupied cells, not to the grid.
//
// An Index is one assignment's labelling of a set: the representative
// rank (minimum owning rank, the §III convention) of every occupied
// cell at every level, in slab order. Labelling scatters the finest
// ranks and takes one min-reduction per level over the child runs; it
// sorts nothing and builds no directory.
//
// The set also owns the Plans recorded over it: the near-field and
// interaction-list cell pairs as slab positions. Which cells are
// neighbors or list partners depends only on the occupied cells, so a
// plan recorded once serves every labelling of its set, replayed
// against each labelling's representatives (Reps). The oracles live in
// the tests: quadtree.RankTree for the per-level queries and a
// cell->rank map built from the assignment's arrays for the finest
// level. For every query family here a test pins exact equality of the
// replayed event multisets against that enumeration.
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

// level is one resolution level of a set: occupied cells as sorted
// level keys, the start of each cell's child group in the next-finer
// level, and a radix directory over the keys. At the finest level
// childStart is nil.
type level struct {
	keys       []uint64
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

// buildDir builds the level's radix directory for the given total key
// width in bits.
func (lv *level) buildDir(keyBits uint) {
	db := dirBits(len(lv.keys), keyBits)
	lv.shift = keyBits - db
	size := (1 << db) + 1
	lv.dir = make([]int32, size)
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

// Set is the skeleton of one particle set: its occupied cells at every
// level and the pair plans recorded over them. It does not depend on
// any assignment, so every assignment of the set labels the same Set.
// A Set is immutable once built, apart from recording plans on demand,
// and safe to share across goroutines.
type Set struct {
	// Order is the finest resolution order (grid side 2^Order).
	Order uint
	pts   []geom.Point
	// pos[i] is the finest slab position of pts[i].
	pos []int32
	// lv[l] holds level l; lv[Order] is the particle level.
	lv []level

	plansMu sync.Mutex
	plans   []*planSlot
}

// NewSet builds the skeleton of the particle cells pts at the given
// order. pts is copied, so the caller may reuse it. It rejects cells
// outside the 2^order x 2^order grid and duplicate cells (the paper
// assumes at most one particle per finest-resolution cell).
func NewSet(order uint, pts []geom.Point) (*Set, error) {
	defer obs.StartSpan("keybuild").End()
	buildCounter.Inc()
	side := geom.Side(order)
	n := len(pts)
	keys := make([]uint64, n)
	idx := make([]int32, n)
	sorted := true
	for i, p := range pts {
		if p.X >= side || p.Y >= side {
			return nil, fmt.Errorf("keynav: particle cell %v outside the %dx%d grid", p, side, side)
		}
		keys[i], idx[i] = sfc.MortonKey(p.X, p.Y), int32(i)
		if i > 0 && keys[i] < keys[i-1] {
			sorted = false
		}
	}
	// Morton-ordered input arrives sorted; any other order pays one
	// radix pair sort, which carries each key's input index along.
	if !sorted {
		sortPairs(keys, idx, 2*order)
	}
	s := &Set{Order: order, pts: append([]geom.Point(nil), pts...), pos: make([]int32, n)}
	for j, i := range idx {
		// Equal cells have equal keys and sort next to each other.
		if j > 0 && keys[j] == keys[j-1] {
			return nil, fmt.Errorf("keynav: duplicate particle cell %v", pts[i])
		}
		s.pos[i] = int32(j)
	}
	s.buildLevels(keys)
	return s, nil
}

// buildLevels derives every coarser level from the sorted finest keys
// by one linear scan per level over right-shifted keys.
func (s *Set) buildLevels(keys []uint64) {
	s.lv = make([]level, s.Order+1)
	fin := &s.lv[s.Order]
	fin.keys = keys
	fin.buildDir(2 * s.Order)
	for l := int(s.Order) - 1; l >= 0; l-- {
		src, dst := s.lv[l+1].keys, &s.lv[l]
		m := 0
		for i, k := range src {
			if i == 0 || k>>2 != src[i-1]>>2 {
				m++
			}
		}
		dst.keys = make([]uint64, 0, m)
		dst.childStart = make([]int32, 0, m+1)
		for i, k := range src {
			if i == 0 || k>>2 != src[i-1]>>2 {
				dst.keys = append(dst.keys, k>>2)
				dst.childStart = append(dst.childStart, int32(i))
			}
		}
		dst.childStart = append(dst.childStart, int32(len(src)))
		dst.buildDir(2 * uint(l))
	}
}

// N returns the particle count.
func (s *Set) N() int { return len(s.pts) }

// Points returns the set's particle cells in input order. The slice
// belongs to the set and must not be modified.
func (s *Set) Points() []geom.Point { return s.pts }

// Pos returns the finest-level slab position of input point i: the
// position a near-field Pair names it by.
func (s *Set) Pos(i int) int32 { return s.pos[i] }

// LevelLen returns the number of occupied cells at a level.
func (s *Set) LevelLen(l uint) int { return len(s.lv[l].keys) }

// Label returns the labelling of the set under an assignment: ranks[i]
// owns input point i. The ranks are scattered into finest slab order,
// and each coarser cell's representative is the minimum over its
// child run. ranks is not retained.
func (s *Set) Label(ranks []int32) *Index {
	if len(ranks) != len(s.pts) {
		panic(fmt.Sprintf("keynav: %d ranks label a set of %d cells", len(ranks), len(s.pts)))
	}
	total := 0
	for l := range s.lv {
		total += len(s.lv[l].keys)
	}
	slab := make([]int32, total)
	ix := &Index{Order: s.Order, set: s, reps: make([][]int32, len(s.lv))}
	for l := range s.lv {
		m := len(s.lv[l].keys)
		ix.reps[l], slab = slab[:m:m], slab[m:]
	}
	fin := ix.reps[s.Order]
	for i, r := range ranks {
		fin[s.pos[i]] = r
	}
	for l := int(s.Order) - 1; l >= 0; l-- {
		src, start := ix.reps[l+1], s.lv[l].childStart
		for j := range ix.reps[l] {
			rep := src[start[j]]
			for _, r := range src[start[j]+1 : start[j+1]] {
				rep = min(rep, r)
			}
			ix.reps[l][j] = rep
		}
	}
	return ix
}

// Index is one assignment's labelling of a Set: the representative
// rank of every occupied cell at every level, in slab order. Build it
// with Set.Label.
type Index struct {
	// Order is the finest resolution order (grid side 2^Order).
	Order uint
	set   *Set
	// reps[l] holds level l's representatives; all levels share one
	// allocation.
	reps [][]int32
}

// Set returns the skeleton the index labels, which owns its plans.
func (ix *Index) Set() *Set { return ix.set }

// LevelLen returns the number of occupied cells at a level.
func (ix *Index) LevelLen(l uint) int { return ix.set.LevelLen(l) }

// Reps returns the representative ranks of level l's occupied cells in
// slab order: the ranks a Plan's slab positions index. The slice
// belongs to the index and must not be modified.
func (ix *Index) Reps(l uint) []int32 { return ix.reps[l] }

// ChildStart returns, for level l < Order, where each occupied cell's
// child group starts in level l+1's slab (LevelLen(l)+1 entries, the
// last one LevelLen(l+1)): the parent-child links of the interpolation
// stream, which no Plan needs to store. The slice belongs to the set
// and must not be modified.
func (ix *Index) ChildStart(l uint) []int32 { return ix.set.lv[l].childStart }

// RankAt returns the rank owning the particle in the given finest cell,
// or -1 if the cell is empty or outside the grid (whose Morton key
// would fall outside the level directory).
func (ix *Index) RankAt(p geom.Point) int32 {
	if side := geom.Side(ix.Order); p.X >= side || p.Y >= side {
		return -1
	}
	if i := ix.set.lv[ix.Order].find(sfc.MortonKey(p.X, p.Y)); i >= 0 {
		return ix.reps[ix.Order][i]
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
	if i := ix.set.lv[l].find(sfc.MortonKey(x, y)); i >= 0 {
		return ix.reps[l][i]
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
func (s *Set) upperNeighborPairs(lo, hi, radius int, m geom.Metric, out []Pair) []Pair {
	if radius <= 0 {
		return out
	}
	side := int(geom.Side(s.Order))
	fin := &s.lv[s.Order]
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
func (s *Set) upperILPairs(l uint, plo, phi int, out []Pair) []Pair {
	if l < 2 {
		return out
	}
	par := &s.lv[l-1]
	ch := &s.lv[l]
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
