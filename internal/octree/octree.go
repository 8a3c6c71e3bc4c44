// Package octree is the 3D counterpart of the quadtree package: the
// per-level minimum-rank representative tree over a compressed octree
// domain decomposition, with 3D FMM interaction lists. It backs the 3D
// extension of the communication model (the paper's future-work item
// ii).
package octree

import (
	"fmt"

	"sfcacd/internal/geom3"
)

// RankTree records, per octree level, the minimum processor rank
// owning a particle in each cell (-1 when empty). Level 0 is the root;
// level Order is the finest 2^Order cube.
type RankTree struct {
	// Order is the finest level.
	Order uint
	// levels[l] has 8^l entries indexed by (z*side+y)*side+x.
	levels [][]int32
}

// BuildRankTree constructs the tree from particle cells and owning
// ranks.
func BuildRankTree(order uint, pts []geom3.Point3, ranks []int32) *RankTree {
	if len(pts) != len(ranks) {
		panic("octree: pts and ranks length mismatch")
	}
	t := &RankTree{Order: order, levels: make([][]int32, order+1)}
	for l := uint(0); l <= order; l++ {
		lv := make([]int32, geom3.Cells(l))
		for i := range lv {
			lv[i] = -1
		}
		t.levels[l] = lv
	}
	finest := t.levels[order]
	side := geom3.Side(order)
	for i, p := range pts {
		id := geom3.CellID(p, side)
		if cur := finest[id]; cur == -1 || ranks[i] < cur {
			finest[id] = ranks[i]
		}
	}
	for l := int(order) - 1; l >= 0; l-- {
		dst := t.levels[l]
		src := t.levels[l+1]
		cside := geom3.Side(uint(l))
		fside := geom3.Side(uint(l + 1))
		for z := uint32(0); z < cside; z++ {
			for y := uint32(0); y < cside; y++ {
				for x := uint32(0); x < cside; x++ {
					best := int32(-1)
					for dz := uint32(0); dz < 2; dz++ {
						for dy := uint32(0); dy < 2; dy++ {
							for dx := uint32(0); dx < 2; dx++ {
								v := src[geom3.CellID(geom3.Pt3(2*x+dx, 2*y+dy, 2*z+dz), fside)]
								if v != -1 && (best == -1 || v < best) {
									best = v
								}
							}
						}
					}
					dst[geom3.CellID(geom3.Pt3(x, y, z), cside)] = best
				}
			}
		}
	}
	return t
}

// Rep returns the representative rank of a cell, or -1 when empty.
func (t *RankTree) Rep(level uint, p geom3.Point3) int32 {
	if level > t.Order {
		panic(fmt.Sprintf("octree: level %d beyond order %d", level, t.Order))
	}
	side := geom3.Side(level)
	if p.X >= side || p.Y >= side || p.Z >= side {
		panic(fmt.Sprintf("octree: cell %v outside level %d", p, level))
	}
	return t.levels[level][geom3.CellID(p, side)]
}

// VisitCells calls fn for every occupied cell of a level, in dense-id
// order.
func (t *RankTree) VisitCells(level uint, fn func(p geom3.Point3, rep int32)) {
	side := geom3.Side(level)
	lv := t.levels[level]
	for id, rep := range lv {
		if rep != -1 {
			fn(geom3.PointOfCellID(uint64(id), side), rep)
		}
	}
}

// InteractionList calls fn for every occupied member of the 3D FMM
// interaction list of cell p at the given level: children of the
// parent's (<=26) neighbors that are not Chebyshev-adjacent to p.
func (t *RankTree) InteractionList(level uint, p geom3.Point3, fn func(q geom3.Point3, rep int32)) {
	if level < 2 {
		return
	}
	side := geom3.Side(level)
	if p.X >= side || p.Y >= side || p.Z >= side {
		panic(fmt.Sprintf("octree: cell %v outside level %d", p, level))
	}
	lv := t.levels[level]
	px, py, pz := int(p.X/2), int(p.Y/2), int(p.Z/2)
	pside := int(side / 2)
	for nz := pz - 1; nz <= pz+1; nz++ {
		if nz < 0 || nz >= pside {
			continue
		}
		for ny := py - 1; ny <= py+1; ny++ {
			if ny < 0 || ny >= pside {
				continue
			}
			for nx := px - 1; nx <= px+1; nx++ {
				if nx < 0 || nx >= pside {
					continue
				}
				for dz := 0; dz < 2; dz++ {
					for dy := 0; dy < 2; dy++ {
						for dx := 0; dx < 2; dx++ {
							q := geom3.Pt3(uint32(2*nx+dx), uint32(2*ny+dy), uint32(2*nz+dz))
							if geom3.Chebyshev(p, q) <= 1 {
								continue
							}
							if rep := lv[geom3.CellID(q, side)]; rep != -1 {
								fn(q, rep)
							}
						}
					}
				}
			}
		}
	}
}
