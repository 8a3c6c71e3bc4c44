package acd

import (
	"testing"

	"sfcacd/internal/geom"
	"sfcacd/internal/partition"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestDeltaOwnersMatchesChunkOf checks the range-walk against the
// per-particle ChunkOf definition across sizes, rank counts, and churn.
func TestDeltaOwnersMatchesChunkOf(t *testing.T) {
	r := rng.New(42)
	for _, n := range []int{1, 7, 100, 5000} {
		for _, p := range []int{1, 3, 16, 64} {
			if p > n {
				continue
			}
			// owners as of "last tick": correct for a random permutation.
			lastPerm := make([]int, n)
			r.Perm(lastPerm)
			owners := make([]int32, n)
			for i, id := range lastPerm {
				owners[id] = int32(partition.ChunkOf(i, n, p))
			}
			// This tick's permutation: swap a few entries.
			perm := append([]int(nil), lastPerm...)
			for s := 0; s < n/10+1; s++ {
				i, j := r.Intn(n), r.Intn(n)
				perm[i], perm[j] = perm[j], perm[i]
			}
			got := DeltaOwners(perm, owners, p, nil)
			want := 0
			for i, id := range perm {
				nu := int32(partition.ChunkOf(i, n, p))
				if owners[id] != nu {
					want++
				}
			}
			if len(got) != want {
				t.Fatalf("n=%d p=%d: %d deltas, want %d", n, p, len(got), want)
			}
			for _, d := range got {
				if owners[d.ID] != d.Old {
					t.Fatalf("n=%d p=%d: delta for %d has Old=%d, owners say %d", n, p, d.ID, d.Old, owners[d.ID])
				}
				if d.Old == d.New {
					t.Fatalf("n=%d p=%d: no-op delta for %d", n, p, d.ID)
				}
			}
		}
	}
}

// TestDeltaOwnersNoChurn pins the fast path: matching owners produce
// no deltas and no allocation beyond the passed slice.
func TestDeltaOwnersNoChurn(t *testing.T) {
	n, p := 1000, 8
	perm := make([]int, n)
	owners := make([]int32, n)
	for i := range perm {
		perm[i] = i
		owners[i] = int32(partition.ChunkOf(i, n, p))
	}
	if got := DeltaOwners(perm, owners, p, nil); len(got) != 0 {
		t.Fatalf("stable permutation produced %d deltas", len(got))
	}
}

// TestRepartitionPolicyHysteresis pins the two-threshold loop: engage
// at Hi, hold through the band, release below Lo.
func TestRepartitionPolicyHysteresis(t *testing.T) {
	rp := RepartitionPolicy{Hi: 0.25, Lo: 0.10}
	seq := []struct {
		gauge float64
		want  bool
	}{
		{0.05, false},
		{0.20, false}, // below Hi: stays off
		{0.25, true},  // reaches Hi: engages
		{0.15, true},  // in the band: holds
		{0.10, true},  // Lo is exclusive: still holds
		{0.09, false}, // below Lo: releases
		{0.20, false}, // band entered from below: stays off
		{0.30, true},
	}
	for i, s := range seq {
		if got := rp.Decide(s.gauge); got != s.want {
			t.Fatalf("step %d (gauge %.2f): Decide = %v, want %v", i, s.gauge, got, s.want)
		}
	}
}

// TestFromSortedMatchesAssign feeds FromSorted the particles Assign
// sorted and requires identical assignments (particles, ranks, and
// rank lookups).
func TestFromSortedMatchesAssign(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	const order, p = 5, 7
	r := rng.New(9)
	side := geom.Side(order)
	seen := make(map[uint64]bool)
	var pts []geom.Point
	for len(pts) < 200 {
		pt := geom.Point{X: r.Uint32n(side), Y: r.Uint32n(side)}
		if id := geom.CellID(pt, side); !seen[id] {
			seen[id] = true
			pts = append(pts, pt)
		}
	}
	want, err := assignPoints(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromSorted(want.Particles, order, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Particles {
		if got.Particles[i] != want.Particles[i] || got.Ranks[i] != want.Ranks[i] {
			t.Fatalf("position %d: got (%v, %d), want (%v, %d)",
				i, got.Particles[i], got.Ranks[i], want.Particles[i], want.Ranks[i])
		}
	}
	for _, pt := range pts {
		if g, w := got.RankAt(pt), want.RankAt(pt); g != w {
			t.Fatalf("RankAt(%v): got %d, want %d", pt, g, w)
		}
	}
}

// TestFromSortedRejectsBadInput covers the argument checks.
func TestFromSortedRejectsBadInput(t *testing.T) {
	if _, err := FromSorted([]geom.Point{{X: 0, Y: 0}}, 3, 0); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := FromSorted(nil, 3, 2); err == nil {
		t.Fatal("empty particles accepted")
	}
}
