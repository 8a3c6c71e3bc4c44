// Package keynav is the key-space neighbor engine: it answers the
// neighbor and interaction-list queries of the FMM communication model
// from a radix-sorted array of Morton keys, instead of probing a dense
// rank table or walking a quadtree.
//
// The engine splits what depends only on where the particles are from
// what depends on who owns them. A Set is the skeleton of one particle
// set: every occupied cell of every level as a sorted Morton key array
// (a cell's index in it is its slab position). The level-l key of a
// cell is its finest key shifted right by 2(Order-l), so each coarser
// level is one linear scan of the finer one, and a parent's children
// form a contiguous run of the finer slab (ChildStart). Memory is
// proportional to the number of occupied cells, not to the grid.
//
// An Index is one assignment's labelling of a set: the representative
// rank (minimum owning rank, the §III convention) of every occupied
// cell at every level, in slab order. Label scatters any ownership's
// finest ranks and takes one min-reduction per level over the child
// runs. LabelAlong labels the chunks of a quadrant-recursive curve
// (Hilbert, Morton, Gray) in one top-down pass, reading the curve
// order off the skeleton with the curve's child-order table.
//
// The set also owns the Plans recorded over it: the near-field and
// interaction-list cell pairs as slab positions, found by refining the
// adjacent cell pairs of each level into the next level's, top down,
// with no neighbor search. They depend only on the occupied cells, so
// a plan recorded once serves every labelling of its set, replayed
// against each labelling's representatives (Reps). The oracles live in
// the tests: quadtree.RankTree, a cell->rank map built from the
// assignment's owners, and the probe enumerations that search for
// every neighbor by key. A test pins each query family's pairs or
// replayed event multisets to them exactly.
package keynav

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
)

var buildCounter = obs.GetCounter("keynav.builds")

// level is one resolution level of a set: occupied cells as sorted
// level keys, the start of each cell's child group in the next-finer
// level, which children each cell has, the cells with more than one,
// and the finest slab position of each cell's first particle. The
// finest level has none of the last four; only it has a radix
// directory over the keys, for RankAt.
type level struct {
	keys       []uint64
	childStart []int32 // len(keys)+1; indices into the next-finer level
	occ        []uint8 // bit s: the child at sub-position s (key & 3) is occupied
	forks      []int32 // ascending positions of the cells with two or more children
	// first[j] is the finest slab position of cell j's first particle
	// in Morton order (len(keys)+1 entries, the last one the particle
	// count), so cell j holds first[j+1]-first[j] particles. At level
	// Order-1 it is childStart.
	first []int32
	dir   []int32 // len (1<<dirBits)+1; bucket b covers dir[b]..dir[b+1]
	shift uint    // key -> directory bucket shift
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
// order, timed as a keybuild phase under parent (nil records none).
// pts is copied, so the caller may reuse it. It rejects cells outside
// the 2^order x 2^order grid and duplicate cells (the paper assumes at
// most one particle per finest-resolution cell).
func NewSet(parent *obs.Span, order uint, pts []geom.Point) (*Set, error) {
	defer parent.Child("keybuild").End()
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
// by one linear scan per level over right-shifted keys, which also
// marks each cell's occupied children. Each level's forks and
// first-particle offsets then come from its child starts, the offsets
// by one gather: a cell's first particle is its first child's.
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
		dst.occ = make([]uint8, 0, m)
		for i, k := range src {
			if i == 0 || k>>2 != src[i-1]>>2 {
				dst.keys = append(dst.keys, k>>2)
				dst.childStart = append(dst.childStart, int32(i))
				dst.occ = append(dst.occ, 0)
			}
			dst.occ[len(dst.occ)-1] |= 1 << (k & 3)
		}
		dst.childStart = append(dst.childStart, int32(len(src)))
		for j := range dst.keys {
			if dst.childStart[j+1]-dst.childStart[j] > 1 {
				dst.forks = append(dst.forks, int32(j))
			}
		}
		if l == int(s.Order)-1 {
			dst.first = dst.childStart
		} else {
			dst.first = make([]int32, len(dst.childStart))
			for j, c := range dst.childStart {
				dst.first[j] = s.lv[l+1].first[c]
			}
		}
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
	ix := s.newIndex(len(ranks))
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

// LabelAlong returns the labelling of the set under chunks of a
// quadrant-recursive curve: ranks[c] owns the c-th particle along q's
// curve, and ranks must be non-decreasing. It reads the curve order off
// the skeleton in one pass per level from the root. Each cell carries
// its curve state and the curve position of its first particle; a
// cell's children take the positions after the particles of the
// siblings the curve visits before them. The curve visits a cell's
// particles contiguously and ranks never decrease, so a cell's
// representative, its minimum rank, is the rank at its first position.
// Nothing is encoded, sorted, scattered or reduced. ranks is not
// retained.
func (s *Set) LabelAlong(q sfc.Quadrants, ranks []int32) *Index {
	ix := s.newIndex(len(ranks))
	if len(ranks) == 0 {
		return ix
	}
	// The curve's child-order table, read once: states are below 4.
	var table [4][4]struct{ digit, next uint8 }
	for st := range table {
		for quad := range table[st] {
			e := &table[st][quad]
			e.digit, e.next = q.Quadrant(uint8(st), uint8(quad))
		}
	}
	n := len(ranks)
	// pos and state of the current level's cells, and of the next
	// level's, which the pass fills while walking the current one.
	pos, npos := make([]int32, 1, n), make([]int32, 0, n)
	state, nstate := make([]uint8, 1, n), make([]uint8, 0, n)
	ix.reps[0][0] = ranks[0]
	for l := uint(0); l < s.Order; l++ {
		start, keys, first := s.lv[l].childStart, s.lv[l+1].keys, s.lv[l+1].first
		m := len(keys)
		npos, nstate = npos[:m], nstate[:m]
		up, reps := ix.reps[l], ix.reps[l+1]
		for j, st := range state {
			lo, hi := start[j], start[j+1]
			tab := &table[st]
			if hi-lo == 1 {
				// An only child starts where its parent does.
				npos[lo], nstate[lo], reps[lo] = pos[j], tab[keys[lo]&3].next, up[j]
				continue
			}
			// Slot the two to four children by visit position, with the
			// particles each holds, then place each child after the
			// particles of the positions before its own.
			var digits [4]uint8
			var held [4]int32
			for k := lo; k < hi; k++ {
				e := tab[keys[k]&3]
				digits[k-lo], nstate[k] = e.digit, e.next
				if first == nil {
					held[e.digit] = 1
				} else {
					held[e.digit] = first[k+1] - first[k]
				}
			}
			c := pos[j]
			at := [4]int32{c, c + held[0], c + held[0] + held[1], c + held[0] + held[1] + held[2]}
			for k := lo; k < hi; k++ {
				c := at[digits[k-lo]]
				npos[k], reps[k] = c, ranks[c]
			}
		}
		pos, npos, state, nstate = npos, pos, nstate, state
	}
	return ix
}

// newIndex allocates an empty labelling of the set, all levels in one
// slab, for n ranks.
func (s *Set) newIndex(n int) *Index {
	if n != len(s.pts) {
		panic(fmt.Sprintf("keynav: %d ranks label a set of %d cells", n, len(s.pts)))
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

// Forks returns, for level l < Order, the slab positions of the
// occupied cells with two or more children, in ascending order. A
// cell's representative is its children's minimum, so an only child
// shares its parent's and its link to the parent never crosses ranks:
// only a fork's links can. The slice belongs to the set and must not
// be modified.
func (ix *Index) Forks(l uint) []int32 { return ix.set.lv[l].forks }

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
// signature, answered by a binary search over the level's keys.
func (ix *Index) Rep(l uint, x, y uint32) int32 {
	if l > ix.Order {
		panic(fmt.Sprintf("keynav: level %d beyond order %d", l, ix.Order))
	}
	side := geom.Side(l)
	if x >= side || y >= side {
		panic(fmt.Sprintf("keynav: cell (%d,%d) outside level %d", x, y, l))
	}
	if i, ok := slices.BinarySearch(ix.set.lv[l].keys, sfc.MortonKey(x, y)); ok {
		return ix.reps[l][i]
	}
	return -1
}
