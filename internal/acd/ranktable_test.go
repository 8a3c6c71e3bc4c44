package acd

import (
	"sync"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestRankTableLazyBuild pins the lazy lookup protocol: Assign leaves
// the key-space index unbuilt, the first RankAt builds it, and Release
// retires the assignment (every cell reads empty, no rebuild).
func TestRankTableLazyBuild(t *testing.T) {
	const order, n, p = 5, 100, 8
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(5), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(pts, sfc.Morton, order, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.keyIx != nil {
		t.Fatal("Assign built the key-space index eagerly")
	}
	if got := a.RankAt(a.Particles[0]); got != a.Ranks[0] {
		t.Fatalf("first RankAt = %d, want %d", got, a.Ranks[0])
	}
	if a.keyIx == nil {
		t.Fatal("RankAt did not build the key-space index")
	}
	if a.KeyIndex() != a.keyIx {
		t.Fatal("KeyIndex did not return the index RankAt built")
	}
	a.Release()
	if got := a.RankAt(a.Particles[0]); got != -1 {
		t.Fatalf("RankAt after Release = %d, want -1", got)
	}
	if a.KeyIndex() != nil {
		t.Fatal("KeyIndex rebuilt after Release")
	}
}

// TestRankAtConcurrentFirstUse probes a fresh assignment from several
// goroutines at once: the lazily built index must be built once and
// answer every probe correctly (run under -race in CI).
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
	a, err := FromOwners(pts, ranks, order, p)
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
				if got := a.RankAt(a.Particles[i]); got != a.Ranks[i] {
					t.Errorf("RankAt(%v) = %d, want %d", a.Particles[i], got, a.Ranks[i])
				}
			}
		}(g)
	}
	wg.Wait()
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("concurrent first probes built the index %d times, want 1", got)
	}
}

// TestFromOwnersEagerTable pins that the explicit-ownership
// constructor checks its cells eagerly: duplicates are rejected at
// construction (wherever they sit in the input, by the sorted-key
// scan), while the rank lookup itself stays lazy.
func TestFromOwnersEagerTable(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, 0), geom.Pt(1, 1)}
	if _, err := FromOwners(pts, []int32{0, 1, 1, 0}, 4, 2); err == nil {
		t.Fatal("FromOwners accepted a duplicate cell")
	}
	a, err := FromOwners(pts[:3], []int32{0, 1, 1}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.keyIx != nil {
		t.Fatal("FromOwners built the key-space index eagerly")
	}
	if got := a.RankAt(geom.Pt(2, 2)); got != 1 {
		t.Fatalf("RankAt = %d, want 1", got)
	}
}

// BenchmarkRankAt measures the per-probe cost of Assignment.RankAt,
// which answers through the key-space index (its lock included);
// BenchmarkKeyNavLookup in internal/keynav is the figure for probing
// the index directly. The probe pattern matches the near-field inner
// loop: a particle's immediate neighbor cell.
func BenchmarkRankAt(b *testing.B) {
	const order, n, p = 8, 15625, 64
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	a, err := Assign(pts, sfc.Hilbert, order, p)
	if err != nil {
		b.Fatal(err)
	}
	a.RankAt(pts[0]) // build the index outside the loop
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		q := a.Particles[i%n]
		if a.RankAt(geom.Pt(q.X^1, q.Y)) >= 0 {
			hits++
		}
	}
	_ = hits
}

// BenchmarkAssign isolates construction cost now that the lookup is
// lazy: the "untouched" case never probes, the "probed" case pays one
// index build.
func BenchmarkAssign(b *testing.B) {
	const order, n, p = 8, 15625, 64
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	for _, probe := range []bool{false, true} {
		name := "untouched"
		if probe {
			name = "probed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := Assign(pts, sfc.Hilbert, order, p)
				if err != nil {
					b.Fatal(err)
				}
				if probe {
					a.RankAt(pts[0])
				}
				a.Release()
			}
		})
	}
}
