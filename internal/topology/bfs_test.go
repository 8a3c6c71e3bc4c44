package topology

import (
	"fmt"
	"sync"

	"sfcacd/internal/geom"
	"sfcacd/internal/geom3"
	"sfcacd/internal/obs"
)

// BFS queries are rare and counted per call.
var bfsQueries = obs.GetCounter("topology.distance.bfs")

// BFSDistances computes single-source shortest-path hop counts over
// the topology's link graph, the ground truth the analytic Distance
// functions are verified against. Unreachable ranks get -1. The
// topology must implement NeighborLister.
func BFSDistances(t Topology, src int) []int {
	checkRank(t, src)
	bfsQueries.Inc()
	nl, ok := t.(NeighborLister)
	if !ok {
		panic(fmt.Sprintf("topology: %s does not expose neighbors for BFS", t.Name()))
	}
	dist := make([]int, t.P())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	var buf []int
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		buf = nl.Neighbors(cur, buf[:0])
		for _, n := range buf {
			if dist[n] == -1 {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// NeighborLister is implemented by topologies whose processors are the
// only network nodes, exposing direct links for BFS verification.
type NeighborLister interface {
	// Neighbors appends the ranks adjacent to p to buf and returns it.
	Neighbors(p int, buf []int) []int
}

// Neighbors implements NeighborLister.
func (b *Bus) Neighbors(p int, buf []int) []int {
	checkRank(b, p)
	if p > 0 {
		buf = append(buf, p-1)
	}
	if p < b.n-1 {
		buf = append(buf, p+1)
	}
	return buf
}

// Neighbors implements NeighborLister.
func (r *Ring) Neighbors(p int, buf []int) []int {
	checkRank(r, p)
	if r.n == 1 {
		return buf
	}
	prev := (p - 1 + r.n) % r.n
	next := (p + 1) % r.n
	buf = append(buf, prev)
	if next != prev {
		buf = append(buf, next)
	}
	return buf
}

// rankTables holds each grid network's inverse placement, cell id ->
// rank, built on its first BFS from the ranks' coordinates.
var rankTables sync.Map

// inverse returns the table a network's placement inverts to, building
// it with fill on first use.
func inverse(key any, p int, fill func(inv []int)) []int {
	if inv, ok := rankTables.Load(key); ok {
		return inv.([]int)
	}
	inv := make([]int, p)
	fill(inv)
	got, _ := rankTables.LoadOrStore(key, inv)
	return got.([]int)
}

// rankAt returns the rank placed at a grid position.
func (g *gridNet) rankAt(pt geom.Point) int {
	inv := inverse(g, len(g.coords), func(inv []int) {
		for r, c := range g.coords {
			inv[geom.CellID(c, g.side)] = r
		}
	})
	return inv[geom.CellID(pt, g.side)]
}

// rankAt returns the rank placed at a grid position.
func (g *grid3D) rankAt(pt geom3.Point3) int {
	inv := inverse(g, len(g.coords), func(inv []int) {
		for r, c := range g.coords {
			inv[geom3.CellID(c, g.side)] = r
		}
	})
	return inv[geom3.CellID(pt, g.side)]
}

func (g *gridNet) gridNeighbors(p int, wrap bool, buf []int) []int {
	c := g.coords[p]
	side := int(g.side)
	if side == 1 {
		return buf
	}
	deltas := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for _, d := range deltas {
		x, y := int(c.X)+d[0], int(c.Y)+d[1]
		if wrap {
			x = (x + side) % side
			y = (y + side) % side
		} else if !geom.InBounds(x, y, g.side) {
			continue
		}
		n := g.rankAt(geom.Pt(uint32(x), uint32(y)))
		dup := false
		for _, v := range buf {
			if v == n {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, n)
		}
	}
	return buf
}

// Neighbors implements NeighborLister.
func (m *Mesh) Neighbors(p int, buf []int) []int {
	checkRank(m, p)
	return m.gridNeighbors(p, false, buf)
}

// Neighbors implements NeighborLister.
func (t *Torus) Neighbors(p int, buf []int) []int {
	checkRank(t, p)
	return t.gridNeighbors(p, true, buf)
}

// Neighbors implements NeighborLister.
func (h *Hypercube) Neighbors(p int, buf []int) []int {
	checkRank(h, p)
	for d := uint(0); d < h.dims; d++ {
		buf = append(buf, p^(1<<d))
	}
	return buf
}

// Neighbors implements NeighborLister.
func (m *Mesh3D) Neighbors(p int, buf []int) []int {
	checkRank(m, p)
	return m.neighbors3(p, false, buf)
}

// Neighbors implements NeighborLister.
func (t *Torus3D) Neighbors(p int, buf []int) []int {
	checkRank(t, p)
	return t.neighbors3(p, true, buf)
}

func (g *grid3D) neighbors3(p int, wrap bool, buf []int) []int {
	c := g.coords[p]
	side := int(g.side)
	if side == 1 {
		return buf
	}
	deltas := [6][3]int{{1, 0, 0}, {-1, 0, 0}, {0, 1, 0}, {0, -1, 0}, {0, 0, 1}, {0, 0, -1}}
	for _, d := range deltas {
		x, y, z := int(c.X)+d[0], int(c.Y)+d[1], int(c.Z)+d[2]
		if wrap {
			x, y, z = (x+side)%side, (y+side)%side, (z+side)%side
		} else if !geom3.InBounds(x, y, z, g.side) {
			continue
		}
		n := g.rankAt(geom3.Pt3(uint32(x), uint32(y), uint32(z)))
		dup := false
		for _, v := range buf {
			if v == n {
				dup = true
				break
			}
		}
		if !dup {
			buf = append(buf, n)
		}
	}
	return buf
}
