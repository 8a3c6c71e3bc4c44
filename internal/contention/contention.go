// Package contention extends the contention-unaware ACD metric toward
// the paper's first future-work item: modeling network contention. It
// routes every communication event over physical links using
// dimension-ordered (XY) routing on a mesh or torus and reports
// per-link load statistics — the maximum link load bounds the
// serialized communication time under uniform message sizes, while the
// ACD only captures the total distance traveled. The contention
// experiment routes the near-field rank-pair replay
// (fmmmodel.VisitNFI): each pair is one message each way.
package contention

import (
	"sfcacd/internal/geom"
	"sfcacd/internal/topology"
)

// GridTopology is the subset of mesh/torus behaviour the router needs.
type GridTopology interface {
	topology.Topology
	Coord(rank int) geom.Point
	Side() uint32
}

// direction indices for the four outgoing links of a node.
const (
	dirXPlus = iota
	dirXMinus
	dirYPlus
	dirYMinus
	numDirs
)

// Tracker accumulates per-link loads of routed messages.
type Tracker struct {
	topo  GridTopology
	wrap  bool
	side  int
	loads []uint32 // node*numDirs + dir
	// Messages is the number of routed messages (including zero-hop).
	Messages uint64
	// Hops is the total number of link traversals.
	Hops uint64
}

// NewTracker returns a tracker for the given mesh or torus. Wraparound
// routing is enabled iff the topology is a torus.
func NewTracker(topo GridTopology) *Tracker {
	side := int(topo.Side())
	return &Tracker{
		topo:  topo,
		wrap:  topo.Name() == "torus",
		side:  side,
		loads: make([]uint32, side*side*numDirs),
	}
}

// Route sends one message from src to dst by XY dimension-ordered
// routing: a run of links along the source's row to the destination's
// column, then a run along that column, adding 1 to the load of every
// link on the path.
func (t *Tracker) Route(src, dst int32) {
	t.Messages++
	if src == dst {
		return
	}
	a, b := t.topo.Coord(int(src)), t.topo.Coord(int(dst))
	t.leg(int(a.X), int(b.X), int(a.Y)*t.side, 1, dirXPlus)
	t.leg(int(a.Y), int(b.Y), int(b.X), t.side, dirYPlus)
}

// leg loads the run of links one axis's leg crosses, from coordinate
// from to coordinate to, on the nodes base + c*stride: the outgoing
// link in direction plus (dirXPlus or dirYPlus) of every node it leaves
// when it steps up the axis, in the opposite direction when it steps
// down. A torus leg goes the shorter way round, wrapping at the seam,
// and the direct way when both are equally long.
func (t *Tracker) leg(from, to, base, stride, plus int) {
	n, step := to-from, 1
	if n < 0 {
		n, step = -n, -1
	}
	if t.wrap && t.side-n < n {
		n, step = t.side-n, -step
	}
	dir := plus
	if step < 0 {
		dir++ // the minus direction follows its plus direction
	}
	t.Hops += uint64(n)
	for c := from; n > 0; n-- {
		t.loads[(base+c*stride)*numDirs+dir]++
		if c += step; c < 0 {
			c += t.side
		} else if c == t.side {
			c = 0
		}
	}
}

// Stats summarizes the link load distribution.
type Stats struct {
	// Messages is the number of routed messages.
	Messages uint64
	// Hops is the total link traversals (equals the ACD numerator under
	// minimal routing).
	Hops uint64
	// MaxLinkLoad is the load of the most congested link.
	MaxLinkLoad uint32
	// MeanLinkLoad is the average load over links that carried traffic.
	MeanLinkLoad float64
	// UsedLinks is the number of links that carried any traffic.
	UsedLinks int
}

// Stats returns the current load summary.
func (t *Tracker) Stats() Stats {
	s := Stats{Messages: t.Messages, Hops: t.Hops}
	var sum uint64
	for _, l := range t.loads {
		if l == 0 {
			continue
		}
		s.UsedLinks++
		sum += uint64(l)
		if l > s.MaxLinkLoad {
			s.MaxLinkLoad = l
		}
	}
	if s.UsedLinks > 0 {
		s.MeanLinkLoad = float64(sum) / float64(s.UsedLinks)
	}
	return s
}
