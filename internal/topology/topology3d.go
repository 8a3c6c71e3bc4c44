package topology

import (
	"fmt"
	"math/bits"

	"sfcacd/internal/geom3"
	"sfcacd/internal/sfc"
)

// This file adds the 3D networks used by the future-work (item iii of
// the paper asks for direct mappings onto 2D/3D interconnects): the 3D
// mesh and torus with SFC-driven rank placement, and the octree
// network. Bus, ring, and hypercube are dimension-agnostic already.

// grid3D carries shared 3D mesh/torus state.
type grid3D struct {
	side      uint32
	coords    []geom3.Point3
	placement string
}

func newGrid3D(procOrder uint, placement sfc.NDCurve) grid3D {
	if procOrder > 10 {
		panic("topology: 3D grid order too large")
	}
	if placement.Dims() != 3 {
		panic(fmt.Sprintf("topology: 3D grid placement curve has %d dims", placement.Dims()))
	}
	side := geom3.Side(procOrder)
	p := int(geom3.Cells(procOrder))
	g := grid3D{
		side:      side,
		coords:    make([]geom3.Point3, p),
		placement: placement.Name(),
	}
	buf := make([]uint32, 3)
	for rank := range g.coords {
		placement.CoordsND(procOrder, uint64(rank), buf)
		g.coords[rank] = geom3.Pt3(buf[0], buf[1], buf[2])
	}
	return g
}

// Coord returns the grid position of a rank.
func (g *grid3D) Coord(rank int) geom3.Point3 { return g.coords[rank] }

// Side returns the cube side.
func (g *grid3D) Side() uint32 { return g.side }

// Placement names the placement curve.
func (g *grid3D) Placement() string { return g.placement }

// Mesh3D is the 3D mesh: a cube of processors with face-neighbor
// links.
type Mesh3D struct {
	grid3D
}

// NewMesh3D returns a 2^procOrder-sided cube mesh (p = 8^procOrder)
// placed along the given 3D curve.
func NewMesh3D(procOrder uint, placement sfc.NDCurve) *Mesh3D {
	return &Mesh3D{grid3D: newGrid3D(procOrder, placement)}
}

// Name implements Topology.
func (m *Mesh3D) Name() string { return "mesh3d" }

// P implements Topology.
func (m *Mesh3D) P() int { return len(m.coords) }

// Distance implements Topology: 3D Manhattan distance.
func (m *Mesh3D) Distance(a, b int) int {
	checkRank(m, a)
	checkRank(m, b)
	return geom3.Manhattan(m.coords[a], m.coords[b])
}

// Torus3D is the 3D torus: the mesh plus wrap links per dimension.
type Torus3D struct {
	grid3D
}

// NewTorus3D returns a 2^procOrder-sided cube torus placed along the
// given 3D curve.
func NewTorus3D(procOrder uint, placement sfc.NDCurve) *Torus3D {
	return &Torus3D{grid3D: newGrid3D(procOrder, placement)}
}

// Name implements Topology.
func (t *Torus3D) Name() string { return "torus3d" }

// P implements Topology.
func (t *Torus3D) P() int { return len(t.coords) }

// Distance implements Topology: per-dimension wrapped Manhattan
// distance.
func (t *Torus3D) Distance(a, b int) int {
	checkRank(t, a)
	checkRank(t, b)
	ca, cb := t.coords[a], t.coords[b]
	return wrapDist(ca.X, cb.X, t.side) + wrapDist(ca.Y, cb.Y, t.side) + wrapDist(ca.Z, cb.Z, t.side)
}

// OctreeNet is the 3D analog of the quadtree network: p = 8^levels
// processors at the leaves of a complete 8-ary switch tree, leaves
// labeled in Morton order.
type OctreeNet struct {
	levels uint
}

// NewOctreeNet returns an octree network with 8^levels processors.
func NewOctreeNet(levels uint) *OctreeNet {
	if levels > 10 {
		panic("topology: octree levels too large")
	}
	return &OctreeNet{levels: levels}
}

// Name implements Topology.
func (o *OctreeNet) Name() string { return "octree" }

// P implements Topology.
func (o *OctreeNet) P() int { return 1 << (3 * o.levels) }

// Distance implements Topology: 2 * (levels - common base-8 prefix).
func (o *OctreeNet) Distance(a, b int) int {
	checkRank(o, a)
	checkRank(o, b)
	if a == b {
		return 0
	}
	diff := uint32(a) ^ uint32(b)
	top := uint(bits.Len32(diff))
	digits := (top + 2) / 3
	return int(2 * digits)
}
