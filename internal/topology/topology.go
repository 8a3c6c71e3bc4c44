// Package topology implements the six communication network topologies
// studied in the paper (§II-B): bus (linear array), ring, mesh, torus,
// quadtree, and hypercube. Each exposes the shortest-path hop distance
// between processor ranks — the quantity the ACD metric averages.
//
// For the mesh and torus, processor ranks are placed onto the physical
// grid by a processor-order space-filling curve (§IV step 3): rank i
// sits at the grid cell the curve visits at position i. The remaining
// topologies use natural rank labels, as in the paper.
//
// Every distance function is analytic (O(1) or O(log p)); the tests
// cross-verify them against BFS over each network's links.
package topology

import (
	"fmt"
	"math/bits"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
)

// Distance-query volume counters. Distance itself is deliberately not
// instrumented per call: it sits in multi-million-call inner loops
// (fmmmodel's NFI/FFI traversals) where even one uncontended atomic
// add per call is a measurable fraction of the work. Query-dominated
// pipelines therefore tally locally — usually for free, as the event
// count of the acd.Accumulator they are filling — and flush in bulk
// through CountDistanceQueries.
var analyticQueries = obs.GetCounter("topology.distance.analytic")

// CountDistanceQueries records n analytic Distance calls answered by
// some topology. See the counter comment for why this is a bulk API.
func CountDistanceQueries(n uint64) {
	if n > 0 {
		analyticQueries.Add(n)
	}
}

// Topology is a network of P processors with a shortest-path hop
// metric over ranks 0..P-1.
type Topology interface {
	// Name returns the topology's canonical lower-case name.
	Name() string
	// P returns the number of processors.
	P() int
	// Distance returns the shortest-path hop count between the
	// processors ranked a and b. It is a metric: symmetric, zero iff
	// a == b, and satisfies the triangle inequality.
	Distance(a, b int) int
}

// checkRank is the cold path of the Distance guards: callers test the
// range with an inlinable concrete P() first, so the dynamic dispatch
// here is only paid on the way to a panic.
func checkRank(t Topology, r int) {
	if r < 0 || r >= t.P() {
		panic(fmt.Sprintf("topology: rank %d outside %s of %d processors", r, t.Name(), t.P()))
	}
}

// --- Bus (linear array) ---

// Bus is the paper's bus topology: processors on a line, each linked
// only to its two direct neighbors.
type Bus struct {
	n int
}

// NewBus returns a bus of p processors (p >= 1).
func NewBus(p int) *Bus {
	if p < 1 {
		panic("topology: bus needs at least 1 processor")
	}
	return &Bus{n: p}
}

// Name implements Topology.
func (b *Bus) Name() string { return "bus" }

// P implements Topology.
func (b *Bus) P() int { return b.n }

// Distance implements Topology.
func (b *Bus) Distance(x, y int) int {
	if uint(x) >= uint(b.P()) || uint(y) >= uint(b.P()) {
		checkRank(b, x)
		checkRank(b, y)
	}
	if x > y {
		return x - y
	}
	return y - x
}

// --- Ring ---

// Ring is a bus with an extra wrap link between the first and last
// processors.
type Ring struct {
	n int
}

// NewRing returns a ring of p processors (p >= 1).
func NewRing(p int) *Ring {
	if p < 1 {
		panic("topology: ring needs at least 1 processor")
	}
	return &Ring{n: p}
}

// Name implements Topology.
func (r *Ring) Name() string { return "ring" }

// P implements Topology.
func (r *Ring) P() int { return r.n }

// Distance implements Topology.
func (r *Ring) Distance(x, y int) int {
	if uint(x) >= uint(r.P()) || uint(y) >= uint(r.P()) {
		checkRank(r, x)
		checkRank(r, y)
	}
	d := x - y
	if d < 0 {
		d = -d
	}
	if wrap := r.n - d; wrap < d {
		return wrap
	}
	return d
}

// --- Mesh and Torus ---

// MaxProcOrder is the largest processor order the square-grid networks
// (mesh, torus) and the quadtree network accept: p = 4^MaxProcOrder =
// 2^30 ranks, the largest power of four whose ranks fit an int32.
const MaxProcOrder = 15

// gridNet carries the shared state of the mesh and torus: a square
// 2^procOrder grid with an SFC-driven rank placement.
type gridNet struct {
	procOrder uint
	side      uint32
	coords    []geom.Point // rank -> grid position
	placement string
}

func newGridNet(procOrder uint, placement sfc.Curve) gridNet {
	if procOrder > MaxProcOrder {
		panic("topology: grid order too large")
	}
	side := geom.Side(procOrder)
	p := int(geom.Cells(procOrder))
	g := gridNet{
		procOrder: procOrder,
		side:      side,
		coords:    make([]geom.Point, p),
		placement: placement.Name(),
	}
	for rank := range g.coords {
		g.coords[rank] = placement.Point(procOrder, uint64(rank))
	}
	return g
}

// Coord returns the grid position of a rank.
func (g *gridNet) Coord(rank int) geom.Point { return g.coords[rank] }

// Side returns the grid side length.
func (g *gridNet) Side() uint32 { return g.side }

// Placement returns the name of the processor-order curve.
func (g *gridNet) Placement() string { return g.placement }

// Mesh is the 2D mesh/grid topology: a square grid of processors with
// links between horizontal and vertical neighbors.
type Mesh struct {
	gridNet
}

// NewMesh returns a 2^procOrder x 2^procOrder mesh (p = 4^procOrder
// processors) with ranks placed along the given processor-order curve.
func NewMesh(procOrder uint, placement sfc.Curve) *Mesh {
	return &Mesh{gridNet: newGridNet(procOrder, placement)}
}

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// P implements Topology.
func (m *Mesh) P() int { return len(m.coords) }

// Distance implements Topology: the Manhattan distance between the
// ranks' grid positions.
func (m *Mesh) Distance(a, b int) int {
	if uint(a) >= uint(m.P()) || uint(b) >= uint(m.P()) {
		checkRank(m, a)
		checkRank(m, b)
	}
	return geom.Manhattan(m.coords[a], m.coords[b])
}

// torusLUTMaxSide bounds the hop table: at side 256 it holds 2 x 256 x
// 256 uint16 cells (256 KiB). Beyond it the torus kernels fall back to
// per-pair wrap arithmetic on the packed codes.
const torusLUTMaxSide = 256

// Torus is the mesh plus wrap-around links in both dimensions.
//
// Its kernels read each rank's cell as one packed code, y<<(s+1) | x
// with s = procOrder: a guard bit sits above each field. For codes a
// and b, ((a|g) - b) & m with g = 1<<s is (dy<<(s+1) | dx), the
// coordinate deltas taken mod side: the side is a power of two, g
// absorbs the x field's borrow, the y field's borrow runs off the top,
// and m masks both fields. That value indexes hops directly, so the
// wrapped metric is one branch-free table load per pair.
type Torus struct {
	gridNet
	codes []uint32 // rank -> packed cell code
	// hops[dy<<(s+1) | dx] is the hop count for the coordinate deltas
	// (dx, dy) mod side. Built only up to torusLUTMaxSide; nil above it.
	// It holds at least groupHops entries (64 KiB), so a TorusGroup can
	// index it without bounds checks; the entries past the last delta
	// are never read.
	hops        []uint16
	guard, mask uint32 // g and m above
}

// NewTorus returns a 2^procOrder x 2^procOrder torus with ranks placed
// along the given processor-order curve.
func NewTorus(procOrder uint, placement sfc.Curve) *Torus {
	t := &Torus{gridNet: newGridNet(procOrder, placement)}
	t.guard = 1 << procOrder
	t.mask = (t.side-1)<<(procOrder+1) | (t.side - 1)
	t.codes = make([]uint32, len(t.coords))
	for r, c := range t.coords {
		t.codes[r] = c.Y<<(procOrder+1) | c.X
	}
	if t.side <= torusLUTMaxSide {
		t.hops = make([]uint16, max(t.mask+1, groupHops))
		for dy := uint32(0); dy < t.side; dy++ {
			for dx := uint32(0); dx < t.side; dx++ {
				t.hops[dy<<(procOrder+1)|dx] = uint16(wrapDist(dx, 0, t.side) + wrapDist(dy, 0, t.side))
			}
		}
	}
	return t
}

// codeHops is the arithmetic fallback above torusLUTMaxSide: the hop
// count between two packed codes without the table.
func (t *Torus) codeHops(a, b uint32) uint64 {
	d := (a | t.guard) - b
	dx, dy := d&(t.side-1), d>>(t.procOrder+1)&(t.side-1)
	return uint64(min(dx, t.side-dx) + min(dy, t.side-dy))
}

// Name implements Topology.
func (t *Torus) Name() string { return "torus" }

// P implements Topology.
func (t *Torus) P() int { return len(t.coords) }

// Distance implements Topology: per-dimension wrapped Manhattan
// distance.
func (t *Torus) Distance(a, b int) int {
	if uint(a) >= uint(t.P()) || uint(b) >= uint(t.P()) {
		checkRank(t, a)
		checkRank(t, b)
	}
	ca, cb := t.coords[a], t.coords[b]
	return wrapDist(ca.X, cb.X, t.side) + wrapDist(ca.Y, cb.Y, t.side)
}

func wrapDist(a, b, side uint32) int {
	d := a - b
	if a < b {
		d = b - a
	}
	if wrap := side - d; wrap < d {
		return int(wrap)
	}
	return int(d)
}

// --- Hypercube ---

// Hypercube is the classical binary hypercube: p = 2^dims processors,
// ranks adjacent iff their labels differ in exactly one bit.
type Hypercube struct {
	dims uint
}

// NewHypercube returns a hypercube with 2^dims processors.
func NewHypercube(dims uint) *Hypercube {
	if dims > 30 {
		panic("topology: hypercube dimension too large")
	}
	return &Hypercube{dims: dims}
}

// Name implements Topology.
func (h *Hypercube) Name() string { return "hypercube" }

// P implements Topology.
func (h *Hypercube) P() int { return 1 << h.dims }

// Distance implements Topology: the Hamming distance of the labels.
func (h *Hypercube) Distance(a, b int) int {
	if uint(a) >= uint(h.P()) || uint(b) >= uint(h.P()) {
		checkRank(h, a)
		checkRank(h, b)
	}
	return bits.OnesCount32(uint32(a) ^ uint32(b))
}

// --- Quadtree network ---

// QuadtreeNet is the quadtree topology: p = 4^levels processors at the
// leaves of a complete 4-ary switch tree; every message travels up to
// the lowest common ancestor and back down, so the hop distance is
// twice the depth below the LCA. Leaf ranks are labeled in quadrant
// (Morton) order so that rank prefixes encode the tree structure.
type QuadtreeNet struct {
	levels uint
}

// NewQuadtreeNet returns a quadtree network with 4^levels processors.
func NewQuadtreeNet(levels uint) *QuadtreeNet {
	if levels > MaxProcOrder {
		panic("topology: quadtree levels too large")
	}
	return &QuadtreeNet{levels: levels}
}

// Name implements Topology.
func (q *QuadtreeNet) Name() string { return "quadtree" }

// P implements Topology.
func (q *QuadtreeNet) P() int { return 1 << (2 * q.levels) }

// Distance implements Topology: 2 * (levels - common prefix length in
// base-4 digits).
func (q *QuadtreeNet) Distance(a, b int) int {
	if uint(a) >= uint(q.P()) || uint(b) >= uint(q.P()) {
		checkRank(q, a)
		checkRank(q, b)
	}
	if a == b {
		return 0
	}
	diff := uint32(a) ^ uint32(b)
	// Highest differing bit, rounded up to a whole base-4 digit pair.
	top := uint(bits.Len32(diff)) // 1-based bit index of highest set bit
	digits := (top + 1) / 2       // number of base-4 digits below and including the difference
	return int(2 * digits)
}

// --- Factories ---

// Kind names the six topology families.
var Kinds = []string{"bus", "ring", "mesh", "torus", "quadtree", "hypercube"}

// New constructs a topology by name with exactly p processors. Mesh,
// torus, and quadtree require p to be a power of 4; the hypercube
// requires a power of 2. placement is consulted only by mesh and torus
// (pass nil for natural row-major placement).
func New(name string, p int, placement sfc.Curve) (Topology, error) {
	if p < 1 {
		return nil, fmt.Errorf("topology: p = %d must be positive", p)
	}
	if placement == nil {
		placement = sfc.RowMajor
	}
	switch name {
	case "bus":
		return NewBus(p), nil
	case "ring":
		return NewRing(p), nil
	case "mesh", "torus", "quadtree":
		order, ok := quarterLog(p)
		if !ok {
			return nil, fmt.Errorf("topology: %s requires a power-of-4 processor count, got %d", name, p)
		}
		switch name {
		case "mesh":
			return NewMesh(order, placement), nil
		case "torus":
			return NewTorus(order, placement), nil
		default:
			return NewQuadtreeNet(order), nil
		}
	case "hypercube":
		if p&(p-1) != 0 {
			return nil, fmt.Errorf("topology: hypercube requires a power-of-2 processor count, got %d", p)
		}
		return NewHypercube(uint(bits.TrailingZeros32(uint32(p)))), nil
	}
	return nil, fmt.Errorf("topology: unknown topology %q", name)
}

// quarterLog returns m with p == 4^m, if such m exists.
func quarterLog(p int) (uint, bool) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, false
	}
	tz := bits.TrailingZeros32(uint32(p))
	if tz%2 != 0 {
		return 0, false
	}
	return uint(tz / 2), true
}
