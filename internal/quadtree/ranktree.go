// Package quadtree provides the per-level representative (minimum-rank)
// quadtree with its FMM interaction lists: the dense reference the
// far-field model is tested against.
package quadtree

import (
	"fmt"

	"sfcacd/internal/geom"
)

// RankTree records, for every cell of every resolution level, the
// minimum processor rank owning a particle inside the cell (-1 when
// the cell is empty). Level 0 is the root (one cell); level Order is
// the finest resolution. Because SFC chunks are contiguous in the
// particle order, the minimum rank of a cell is exactly the rank of
// the cell's lowest-ordered particle — the representative convention
// of §III for both the interpolation log-tree and the interaction
// list.
//
// The tree stores all 4^l cells of every level, so it is the
// reference implementation rather than a production path: the model
// answers the same queries from the key-space index (internal/keynav),
// whose tests and the far-field oracle compare against this tree.
type RankTree struct {
	// Order is the finest level (grid side 2^Order).
	Order uint
	// levels[l] holds 4^l entries indexed by y*2^l + x.
	levels [][]int32
}

// BuildRankTree constructs the representative tree from particle cells
// and their owning ranks (parallel slices, as produced by
// acd.Assignment).
func BuildRankTree(order uint, pts []geom.Point, ranks []int32) *RankTree {
	if len(pts) != len(ranks) {
		panic("quadtree: pts and ranks length mismatch")
	}
	t := &RankTree{Order: order, levels: make([][]int32, order+1)}
	for l := uint(0); l <= order; l++ {
		lv := make([]int32, geom.Cells(l))
		for i := range lv {
			lv[i] = -1
		}
		t.levels[l] = lv
	}
	// Finest level directly from the particles.
	finest := t.levels[order]
	side := geom.Side(order)
	for i, p := range pts {
		id := geom.CellID(p, side)
		if cur := finest[id]; cur == -1 || ranks[i] < cur {
			finest[id] = ranks[i]
		}
	}
	// Coarser levels: min over the four children.
	for l := int(order) - 1; l >= 0; l-- {
		dst := t.levels[l]
		src := t.levels[l+1]
		cside := geom.Side(uint(l))
		fside := geom.Side(uint(l + 1))
		for y := uint32(0); y < cside; y++ {
			for x := uint32(0); x < cside; x++ {
				best := int32(-1)
				for dy := uint32(0); dy < 2; dy++ {
					for dx := uint32(0); dx < 2; dx++ {
						v := src[uint64(2*y+dy)*uint64(fside)+uint64(2*x+dx)]
						if v != -1 && (best == -1 || v < best) {
							best = v
						}
					}
				}
				dst[uint64(y)*uint64(cside)+uint64(x)] = best
			}
		}
	}
	return t
}

// Rep returns the representative rank of cell (x, y) at the given
// level, or -1 if the cell holds no particle.
func (t *RankTree) Rep(level uint, x, y uint32) int32 {
	if level > t.Order {
		panic(fmt.Sprintf("quadtree: level %d beyond order %d", level, t.Order))
	}
	side := geom.Side(level)
	if x >= side || y >= side {
		panic(fmt.Sprintf("quadtree: cell (%d,%d) outside level %d", x, y, level))
	}
	return t.levels[level][uint64(y)*uint64(side)+uint64(x)]
}

// VisitCells calls fn for every occupied cell at a level, in row-major
// order.
func (t *RankTree) VisitCells(level uint, fn func(x, y uint32, rep int32)) {
	side := geom.Side(level)
	lv := t.levels[level]
	for y := uint32(0); y < side; y++ {
		row := uint64(y) * uint64(side)
		for x := uint32(0); x < side; x++ {
			if rep := lv[row+uint64(x)]; rep != -1 {
				fn(x, y, rep)
			}
		}
	}
}

// InteractionList calls fn for every cell in the FMM interaction list
// of cell (x, y) at the given level: the children of the cell's
// parent's neighbors that are not Chebyshev-adjacent to the cell, at
// the same level (§III; validated against the paper's Figure 4).
// Empty cells are skipped; fn receives the member cell and its
// representative. Levels 0 and 1 have empty interaction lists.
func (t *RankTree) InteractionList(level uint, x, y uint32, fn func(nx, ny uint32, rep int32)) {
	if level < 2 {
		return
	}
	side := geom.Side(level)
	if x >= side || y >= side {
		panic(fmt.Sprintf("quadtree: cell (%d,%d) outside level %d", x, y, level))
	}
	lv := t.levels[level]
	px, py := int(x/2), int(y/2)
	pside := int(side / 2)
	self := geom.Pt(x, y)
	for ny := py - 1; ny <= py+1; ny++ {
		if ny < 0 || ny >= pside {
			continue
		}
		for nx := px - 1; nx <= px+1; nx++ {
			if nx < 0 || nx >= pside {
				continue
			}
			// Children of the parent-level cell (nx, ny).
			for dy := 0; dy < 2; dy++ {
				for dx := 0; dx < 2; dx++ {
					cx, cy := uint32(2*nx+dx), uint32(2*ny+dy)
					cand := geom.Pt(cx, cy)
					if geom.Chebyshev(self, cand) <= 1 {
						continue // adjacent (or self): near field
					}
					if rep := lv[uint64(cy)*uint64(side)+uint64(cx)]; rep != -1 {
						fn(cx, cy, rep)
					}
				}
			}
		}
	}
}
