package topology

import (
	"testing"

	"sfcacd/internal/geom"
	"sfcacd/internal/sfc"
)

// bfsDistances is the exported BFSDistances; the alias keeps the many
// existing call sites below unchanged.
func bfsDistances(t Topology, src int) []int { return BFSDistances(t, src) }

func verifyAgainstBFS(t *testing.T, topo Topology) {
	t.Helper()
	for src := 0; src < topo.P(); src++ {
		bfs := bfsDistances(topo, src)
		for dst := 0; dst < topo.P(); dst++ {
			if bfs[dst] == -1 {
				t.Fatalf("%s: %d unreachable from %d", topo.Name(), dst, src)
			}
			if got := topo.Distance(src, dst); got != bfs[dst] {
				t.Fatalf("%s: Distance(%d,%d) = %d, BFS says %d",
					topo.Name(), src, dst, got, bfs[dst])
			}
		}
	}
}

func TestBusMatchesBFS(t *testing.T)  { verifyAgainstBFS(t, NewBus(17)) }
func TestRingMatchesBFS(t *testing.T) { verifyAgainstBFS(t, NewRing(16)) }
func TestRingOddMatchesBFS(t *testing.T) {
	verifyAgainstBFS(t, NewRing(15))
}
func TestHypercubeMatchesBFS(t *testing.T) { verifyAgainstBFS(t, NewHypercube(5)) }

func TestMeshMatchesBFSAllPlacements(t *testing.T) {
	for _, c := range sfc.Extended() {
		verifyAgainstBFS(t, NewMesh(2, c)) // 16 procs
	}
}

func TestTorusMatchesBFSAllPlacements(t *testing.T) {
	for _, c := range sfc.Extended() {
		verifyAgainstBFS(t, NewTorus(2, c))
	}
}

func TestMeshTorusLargerBFS(t *testing.T) {
	verifyAgainstBFS(t, NewMesh(3, sfc.Hilbert)) // 64 procs
	verifyAgainstBFS(t, NewTorus(3, sfc.Morton)) // 64 procs
}

func TestQuadtreeDistances(t *testing.T) {
	q := NewQuadtreeNet(3) // 64 leaves
	cases := []struct {
		a, b, want int
	}{
		{0, 0, 0},
		{0, 1, 2}, // siblings
		{0, 3, 2}, // same parent
		{0, 4, 4}, // cousins: differ in second base-4 digit
		{0, 15, 4},
		{0, 16, 6}, // differ in third digit
		{0, 63, 6},
		{21, 23, 2},
		{16, 31, 4},
	}
	for _, c := range cases {
		if got := q.Distance(c.a, c.b); got != c.want {
			t.Errorf("quadtree Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestQuadtreeMatchesExplicitTree(t *testing.T) {
	// Build the full switch tree explicitly and BFS leaf-to-leaf.
	const levels = 3
	q := NewQuadtreeNet(levels)
	// Node ids: internal nodes of level l (0=root) numbered densely;
	// adjacency parent <-> child.
	type node struct{ level, idx int }
	idOf := func(n node) int {
		// Offset = sum of 4^j for j < level.
		off := 0
		for j := 0; j < n.level; j++ {
			off += 1 << (2 * j)
		}
		return off + n.idx
	}
	total := 0
	for j := 0; j <= levels; j++ {
		total += 1 << (2 * j)
	}
	adj := make([][]int, total)
	for l := 0; l < levels; l++ {
		for i := 0; i < 1<<(2*l); i++ {
			p := idOf(node{l, i})
			for c := 0; c < 4; c++ {
				ch := idOf(node{l + 1, i*4 + c})
				adj[p] = append(adj[p], ch)
				adj[ch] = append(adj[ch], p)
			}
		}
	}
	leafID := func(rank int) int { return idOf(node{levels, rank}) }
	for src := 0; src < q.P(); src += 7 {
		distv := make([]int, total)
		for i := range distv {
			distv[i] = -1
		}
		start := leafID(src)
		distv[start] = 0
		queue := []int{start}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, n := range adj[cur] {
				if distv[n] == -1 {
					distv[n] = distv[cur] + 1
					queue = append(queue, n)
				}
			}
		}
		for dst := 0; dst < q.P(); dst++ {
			if got := q.Distance(src, dst); got != distv[leafID(dst)] {
				t.Fatalf("quadtree Distance(%d,%d) = %d, tree BFS says %d",
					src, dst, got, distv[leafID(dst)])
			}
		}
	}
}

func TestMetricProperties(t *testing.T) {
	topos := []Topology{
		NewBus(9), NewRing(12), NewMesh(2, sfc.Hilbert), NewTorus(2, sfc.Gray),
		NewHypercube(4), NewQuadtreeNet(2),
	}
	for _, topo := range topos {
		p := topo.P()
		for a := 0; a < p; a++ {
			if topo.Distance(a, a) != 0 {
				t.Fatalf("%s: Distance(%d,%d) != 0", topo.Name(), a, a)
			}
			for b := 0; b < p; b++ {
				d := topo.Distance(a, b)
				if d != topo.Distance(b, a) {
					t.Fatalf("%s: asymmetric at (%d,%d)", topo.Name(), a, b)
				}
				if a != b && d <= 0 {
					t.Fatalf("%s: non-positive distance %d at (%d,%d)", topo.Name(), d, a, b)
				}
			}
		}
		// Spot-check the triangle inequality.
		for a := 0; a < p; a += 2 {
			for b := 1; b < p; b += 3 {
				for c := 0; c < p; c += 5 {
					if topo.Distance(a, b) > topo.Distance(a, c)+topo.Distance(c, b) {
						t.Fatalf("%s: triangle inequality violated at (%d,%d,%d)", topo.Name(), a, b, c)
					}
				}
			}
		}
	}
}

func TestMeshPlacementChangesDistances(t *testing.T) {
	// With Hilbert placement, consecutive ranks are always grid
	// neighbors; with row-major placement, rank side-1 -> side is a
	// long hop back across the row.
	hm := NewMesh(3, sfc.Hilbert)
	rm := NewMesh(3, sfc.RowMajor)
	for r := 0; r < hm.P()-1; r++ {
		if d := hm.Distance(r, r+1); d != 1 {
			t.Fatalf("hilbert placement: ranks %d,%d at distance %d", r, r+1, d)
		}
	}
	side := int(rm.Side())
	if d := rm.Distance(side-1, side); d != side {
		t.Fatalf("rowmajor placement: row boundary distance = %d, want %d", d, side)
	}
}

func TestGridAccessors(t *testing.T) {
	m := NewMesh(2, sfc.Hilbert)
	if m.Side() != 4 || m.Placement() != "hilbert" {
		t.Fatalf("side=%d placement=%q", m.Side(), m.Placement())
	}
	seen := make(map[geom.Point]int)
	for r := 0; r < m.P(); r++ {
		c := m.Coord(r)
		if prev, dup := seen[c]; dup || c.X >= m.Side() || c.Y >= m.Side() {
			t.Fatalf("Coord(%d) = %v, off the grid or shared with rank %d", r, c, prev)
		}
		seen[c] = r
	}
}

func TestTorusWrapShortens(t *testing.T) {
	tor := NewTorus(3, sfc.RowMajor) // 8x8
	mesh := NewMesh(3, sfc.RowMajor)
	// Opposite corners: mesh distance 14, torus distance 2.
	a := mesh.rankAt(geom.Pt(0, 0))
	b := mesh.rankAt(geom.Pt(7, 7))
	if d := mesh.Distance(a, b); d != 14 {
		t.Fatalf("mesh corner distance = %d", d)
	}
	if d := tor.Distance(a, b); d != 2 {
		t.Fatalf("torus corner distance = %d", d)
	}
}

func TestNewFactory(t *testing.T) {
	for _, name := range Kinds {
		topo, err := New(name, 16, sfc.Hilbert)
		if err != nil {
			t.Fatalf("New(%s,16): %v", name, err)
		}
		if topo.P() != 16 {
			t.Fatalf("New(%s,16) has %d processors", name, topo.P())
		}
		if topo.Name() != name {
			t.Fatalf("New(%s) named %q", name, topo.Name())
		}
	}
	if _, err := New("star", 16, nil); err == nil {
		t.Error("unknown topology should fail")
	}
	if _, err := New("mesh", 8, nil); err == nil {
		t.Error("mesh with non-power-of-4 should fail")
	}
	if _, err := New("hypercube", 12, nil); err == nil {
		t.Error("hypercube with non-power-of-2 should fail")
	}
	if _, err := New("bus", 0, nil); err == nil {
		t.Error("p=0 should fail")
	}
	// Hypercube of 8 is fine (2^3).
	if topo, err := New("hypercube", 8, nil); err != nil || topo.P() != 8 {
		t.Errorf("hypercube 8: %v", err)
	}
	// Nil placement defaults to row-major.
	topo, err := New("mesh", 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if topo.(*Mesh).Placement() != "rowmajor" {
		t.Errorf("default placement = %q", topo.(*Mesh).Placement())
	}
}

func TestRankPanics(t *testing.T) {
	topos := []Topology{
		NewBus(4), NewRing(4), NewMesh(1, sfc.Hilbert), NewTorus(1, sfc.Hilbert),
		NewHypercube(2), NewQuadtreeNet(1),
	}
	for _, topo := range topos {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: out-of-range rank did not panic", topo.Name())
				}
			}()
			topo.Distance(0, topo.P())
		}()
	}
}

func TestQuarterLog(t *testing.T) {
	cases := map[int]struct {
		order uint
		ok    bool
	}{
		1: {0, true}, 4: {1, true}, 16: {2, true}, 64: {3, true},
		65536: {8, true}, 2: {0, false}, 8: {0, false}, 12: {0, false}, 0: {0, false},
	}
	for p, want := range cases {
		order, ok := quarterLog(p)
		if ok != want.ok || (ok && order != want.order) {
			t.Errorf("quarterLog(%d) = (%d,%v), want (%d,%v)", p, order, ok, want.order, want.ok)
		}
	}
}

func TestSingletonNetworks(t *testing.T) {
	// p=1 edge cases must not crash or return nonzero distances.
	for _, topo := range []Topology{
		NewBus(1), NewRing(1), NewMesh(0, sfc.Hilbert), NewTorus(0, sfc.Hilbert),
		NewHypercube(0), NewQuadtreeNet(0),
	} {
		if topo.P() != 1 {
			t.Fatalf("%s: P = %d", topo.Name(), topo.P())
		}
		if d := topo.Distance(0, 0); d != 0 {
			t.Fatalf("%s: self distance %d", topo.Name(), d)
		}
	}
}
