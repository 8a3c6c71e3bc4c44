package acd

import (
	"sync"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestRankTableLazyBuild pins the lookup protocol: Assign labels the
// particle set at construction, RankAt answers through that labelling
// (KeyIndex), and Release retires the assignment (every cell reads
// empty, and there is no labelling left).
func TestRankTableLazyBuild(t *testing.T) {
	const order, n, p = 5, 100, 8
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(5), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Morton, order, p)
	if err != nil {
		t.Fatal(err)
	}
	ix := a.KeyIndex()
	if ix == nil {
		t.Fatal("Assign left the assignment unlabelled")
	}
	if got, want := a.RankAt(pts[0]), a.Owners()[0]; got != want {
		t.Fatalf("first RankAt = %d, want %d", got, want)
	}
	if a.KeyIndex() != ix {
		t.Fatal("KeyIndex returned another labelling")
	}
	a.Release()
	if got := a.RankAt(pts[0]); got != -1 {
		t.Fatalf("RankAt after Release = %d, want -1", got)
	}
	if a.KeyIndex() != nil {
		t.Fatal("KeyIndex after Release is not nil")
	}
}

// TestRankAtConcurrentFirstUse probes a fresh assignment from several
// goroutines at once: every probe must answer correctly through the
// labelling, and none may build another skeleton (run under -race in
// CI).
func TestRankAtConcurrentFirstUse(t *testing.T) {
	const order, n, p, goroutines = 5, 200, 8, 4
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(6), order, n)
	if err != nil {
		t.Fatal(err)
	}
	ranks := make([]int32, n)
	for i := range ranks {
		ranks[i] = int32(i * 7 % p)
	}
	a, err := ownersPoints(pts, ranks, order, p)
	if err != nil {
		t.Fatal(err)
	}
	builds := obs.GetCounter("keynav.builds")
	before := builds.Value()
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < a.N(); i += goroutines {
				if got := a.RankAt(pts[i]); got != ranks[i] {
					t.Errorf("RankAt(%v) = %d, want %d", pts[i], got, ranks[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if got := builds.Value() - before; got != 0 {
		t.Fatalf("concurrent first probes built %d skeletons, want 0", got)
	}
}

// TestFromOwnersEagerTable pins that the explicit-ownership
// constructor checks its cells eagerly: duplicates are rejected at
// construction (wherever they sit in the input, by the sorted-key
// scan), and the labelling answers the rank lookup.
func TestFromOwnersEagerTable(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 0), geom.Pt(1, 1)}
	if _, err := ownersPoints(pts, []int32{0, 1, 1, 0}, 4, 2); err == nil {
		t.Fatal("FromOwners accepted a duplicate cell")
	}
	a, err := ownersPoints(pts[:3], []int32{0, 1, 1}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.RankAt(geom.Pt(2, 2)); got != 1 {
		t.Fatalf("RankAt = %d, want 1", got)
	}
}

// BenchmarkRankAt measures the per-probe cost of Assignment.RankAt,
// which answers through the labelling; BenchmarkKeyNavLookup in
// internal/keynav is the figure for probing the index directly. The
// probe pattern matches the near-field inner loop: a particle's
// immediate neighbor cell.
func BenchmarkRankAt(b *testing.B) {
	const order, n, p = 8, 15625, 64
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	a, err := assignPoints(pts, sfc.Hilbert, order, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		q := pts[i%n]
		if a.RankAt(geom.Pt(q.X^1, q.Y)) >= 0 {
			hits++
		}
	}
	_ = hits
}

// BenchmarkAssign measures one Hilbert assignment of a particle set
// whose skeleton is already built: the chunking and the top-down
// labelling.
func BenchmarkAssign(b *testing.B) {
	const order, n, p = 8, 15625, 64
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	set, err := keynav.NewSet(order, pts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Assign(set, sfc.Hilbert, p); err != nil {
			b.Fatal(err)
		}
	}
}
