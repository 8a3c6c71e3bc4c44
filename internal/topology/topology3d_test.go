package topology

import (
	"testing"

	"sfcacd/internal/geom3"
	"sfcacd/internal/sfc"
)

func TestMesh3DMatchesBFS(t *testing.T) {
	for _, c := range []sfc.NDCurve{sfc.HilbertND{N: 3}, sfc.MortonND{N: 3}, sfc.RowMajorND{N: 3}} {
		verifyAgainstBFS(t, NewMesh3D(1, c)) // 8 procs
	}
	verifyAgainstBFS(t, NewMesh3D(2, sfc.HilbertND{N: 3})) // 64 procs
}

func TestTorus3DMatchesBFS(t *testing.T) {
	for _, c := range []sfc.NDCurve{sfc.HilbertND{N: 3}, sfc.GrayND{N: 3}} {
		verifyAgainstBFS(t, NewTorus3D(1, c))
	}
	verifyAgainstBFS(t, NewTorus3D(2, sfc.MortonND{N: 3}))
}

func TestOctreeNetDistances(t *testing.T) {
	o := NewOctreeNet(2) // 64 leaves
	cases := []struct{ a, b, want int }{
		{0, 0, 0},
		{0, 1, 2},  // siblings
		{0, 7, 2},  // same parent
		{0, 8, 4},  // cousins
		{0, 63, 4}, // still only two levels
		{9, 15, 2},
	}
	for _, c := range cases {
		if got := o.Distance(c.a, c.b); got != c.want {
			t.Errorf("octree Distance(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestOctreeNetMatchesExplicitTree(t *testing.T) {
	const levels = 2
	o := NewOctreeNet(levels)
	// Build the 8-ary switch tree and BFS.
	offset := func(level int) int {
		off := 0
		for j := 0; j < level; j++ {
			off += 1 << (3 * j)
		}
		return off
	}
	total := offset(levels + 1)
	adj := make([][]int, total)
	for l := 0; l < levels; l++ {
		for i := 0; i < 1<<(3*l); i++ {
			p := offset(l) + i
			for c := 0; c < 8; c++ {
				ch := offset(l+1) + i*8 + c
				adj[p] = append(adj[p], ch)
				adj[ch] = append(adj[ch], p)
			}
		}
	}
	for src := 0; src < o.P(); src += 5 {
		distv := make([]int, total)
		for i := range distv {
			distv[i] = -1
		}
		start := offset(levels) + src
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
		for dst := 0; dst < o.P(); dst++ {
			if got := o.Distance(src, dst); got != distv[offset(levels)+dst] {
				t.Fatalf("octree Distance(%d,%d) = %d, BFS %d", src, dst, got, distv[offset(levels)+dst])
			}
		}
	}
}

func Test3DGridAccessors(t *testing.T) {
	m := NewMesh3D(1, sfc.HilbertND{N: 3})
	if m.Side() != 2 || m.Placement() != "hilbert3d" {
		t.Fatalf("side=%d placement=%q", m.Side(), m.Placement())
	}
	seen := make(map[geom3.Point3]int)
	for r := 0; r < m.P(); r++ {
		c := m.Coord(r)
		if prev, dup := seen[c]; dup || c.X >= m.Side() || c.Y >= m.Side() || c.Z >= m.Side() {
			t.Fatalf("Coord(%d) = %v, off the grid or shared with rank %d", r, c, prev)
		}
		seen[c] = r
	}
}

func TestTorus3DWrapShortens(t *testing.T) {
	tor := NewTorus3D(2, sfc.RowMajorND{N: 3}) // 4x4x4
	mesh := NewMesh3D(2, sfc.RowMajorND{N: 3})
	a := mesh.rankAt(geom3.Pt3(0, 0, 0))
	b := mesh.rankAt(geom3.Pt3(3, 3, 3))
	if d := mesh.Distance(a, b); d != 9 {
		t.Fatalf("mesh3d corner distance = %d", d)
	}
	if d := tor.Distance(a, b); d != 3 {
		t.Fatalf("torus3d corner distance = %d", d)
	}
}

func TestHilbert3DPlacementKeepsRanksAdjacent(t *testing.T) {
	m := NewMesh3D(2, sfc.HilbertND{N: 3})
	for r := 0; r < m.P()-1; r++ {
		if d := m.Distance(r, r+1); d != 1 {
			t.Fatalf("ranks %d,%d at distance %d under hilbert3d placement", r, r+1, d)
		}
	}
}

func Test3DConstructorPanics(t *testing.T) {
	for i, fn := range []func(){
		func() { NewMesh3D(11, sfc.HilbertND{N: 3}) },
		func() { NewMesh3D(2, sfc.HilbertND{N: 2}) },
		func() { NewOctreeNet(11) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func Test3DMetricProperties(t *testing.T) {
	topos := []Topology{
		NewMesh3D(1, sfc.HilbertND{N: 3}),
		NewTorus3D(1, sfc.MortonND{N: 3}),
		NewOctreeNet(1),
	}
	for _, topo := range topos {
		p := topo.P()
		for a := 0; a < p; a++ {
			if topo.Distance(a, a) != 0 {
				t.Fatalf("%s: self distance nonzero", topo.Name())
			}
			for b := 0; b < p; b++ {
				if topo.Distance(a, b) != topo.Distance(b, a) {
					t.Fatalf("%s: asymmetric", topo.Name())
				}
				if a != b && topo.Distance(a, b) <= 0 {
					t.Fatalf("%s: nonpositive", topo.Name())
				}
			}
		}
	}
}
