// Package contention extends the contention-unaware ACD metric toward
// the paper's first future-work item: modeling network contention. It
// routes every communication event over physical links using
// dimension-ordered (XY) routing on a mesh or torus and reports
// per-link load statistics — the maximum link load bounds the
// serialized communication time under uniform message sizes, while the
// ACD only captures the total distance traveled.
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

// linkIndex identifies the outgoing link of the node at (x, y) in
// direction dir.
func (t *Tracker) linkIndex(x, y, dir int) int {
	return (y*t.side+x)*numDirs + dir
}

// stepAxis moves one hop from (x, y) toward target coordinate tc along
// the given axis, adding n messages to the link's load, and returns
// the new coordinate.
func (t *Tracker) stepAxis(x, y, cur, tc int, xAxis bool, n uint32) int {
	delta := tc - cur
	forward := delta > 0
	if t.wrap {
		// Choose the shorter way around.
		d := delta
		if d < 0 {
			d = -d
		}
		if wrapD := t.side - d; wrapD < d {
			forward = !forward
		}
	}
	var dir int
	var next int
	if forward {
		next = cur + 1
		if xAxis {
			dir = dirXPlus
		} else {
			dir = dirYPlus
		}
	} else {
		next = cur - 1
		if xAxis {
			dir = dirXMinus
		} else {
			dir = dirYMinus
		}
	}
	if t.wrap {
		next = (next + t.side) % t.side
	}
	t.loads[t.linkIndex(x, y, dir)] += n
	t.Hops += uint64(n)
	return next
}

// Route sends one message from src to dst: RouteN(src, dst, 1).
func (t *Tracker) Route(src, dst int32) { t.RouteN(src, dst, 1) }

// RouteN sends n messages from src to dst using XY dimension-ordered
// routing (X first, then Y), adding n to the load of every link on the
// path — the same loads and totals as n calls of Route(src, dst). It
// routes a communication matrix one distinct pair at a time.
func (t *Tracker) RouteN(src, dst int32, n uint32) {
	t.Messages += uint64(n)
	if src == dst || n == 0 {
		return
	}
	a := t.topo.Coord(int(src))
	b := t.topo.Coord(int(dst))
	x, y := int(a.X), int(a.Y)
	for x != int(b.X) {
		x = t.stepAxis(x, y, x, int(b.X), true, n)
	}
	for y != int(b.Y) {
		y = t.stepAxis(x, y, y, int(b.Y), false, n)
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
