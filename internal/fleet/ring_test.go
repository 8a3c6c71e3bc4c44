package fleet

import (
	"fmt"
	"math/rand"
	"testing"
)

// testKeys returns k deterministic pseudo-random 32-byte keys (the
// shape of resultcache content addresses).
func testKeys(k int) [][]byte {
	r := rand.New(rand.NewSource(7))
	keys := make([][]byte, k)
	for i := range keys {
		keys[i] = make([]byte, 32)
		r.Read(keys[i])
	}
	return keys
}

// TestRingDeterministicAcrossBuildOrder pins the property fleet
// routing rests on: every process that agrees on the member list
// agrees on every key's owner, regardless of the order the members
// were configured in.
func TestRingDeterministicAcrossBuildOrder(t *testing.T) {
	members := []string{"a", "b", "c", "d", "e"}
	r1 := NewRing(members)
	shuffled := []string{"d", "a", "e", "c", "b"}
	r2 := NewRing(shuffled)
	for _, key := range testKeys(2000) {
		if o1, o2 := r1.Owner(key), r2.Owner(key); o1 != o2 {
			t.Fatalf("owner differs across build order: %q vs %q", o1, o2)
		}
		rep1, rep2 := r1.Replicas(key, 3), r2.Replicas(key, 3)
		if fmt.Sprint(rep1) != fmt.Sprint(rep2) {
			t.Fatalf("replicas differ across build order: %v vs %v", rep1, rep2)
		}
	}
}

// TestRingRemapBound pins consistency: removing one of N members
// remaps only the keys that member owned (~K/N of them), and adding
// it back restores the original routing exactly. The tolerance allows
// the small imbalance 128 virtual nodes leave.
func TestRingRemapBound(t *testing.T) {
	const K = 10000
	members := []string{"n0", "n1", "n2", "n3", "n4"}
	full := NewRing(members)
	reduced := NewRing(members[:4]) // n4 removed
	keys := testKeys(K)

	moved, ownedByRemoved := 0, 0
	for _, key := range keys {
		before := full.Owner(key)
		after := reduced.Owner(key)
		if before == "n4" {
			ownedByRemoved++
			if after == "n4" {
				t.Fatal("removed member still owns a key")
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed member were remapped (consistent hashing must move only the removed member's keys)", moved)
	}
	// The removed member's share is ~K/N; 128 vnodes keep it within
	// 2x of fair share with a wide margin.
	if fair := K / len(members); ownedByRemoved > 2*fair {
		t.Errorf("removed member owned %d of %d keys, want about %d (share too uneven)", ownedByRemoved, K, fair)
	}
	if ownedByRemoved < K/(2*len(members)) {
		t.Errorf("removed member owned only %d of %d keys (share too uneven)", ownedByRemoved, K)
	}

	// Adding the member back restores the full ring's routing.
	restored := NewRing([]string{"n4", "n2", "n0", "n3", "n1"})
	for _, key := range keys {
		if full.Owner(key) != restored.Owner(key) {
			t.Fatal("re-adding a member did not restore routing")
		}
	}
}

// TestRingReplicas checks the replica walk: owner first, all members
// distinct, degenerate sizes handled.
func TestRingReplicas(t *testing.T) {
	r := NewRing([]string{"a", "b", "c"})
	for _, key := range testKeys(200) {
		reps := r.Replicas(key, 2)
		if len(reps) != 2 {
			t.Fatalf("Replicas(2) returned %v", reps)
		}
		if reps[0] != r.Owner(key) {
			t.Fatalf("first replica %q is not the owner %q", reps[0], r.Owner(key))
		}
		if reps[0] == reps[1] {
			t.Fatalf("duplicate members in %v", reps)
		}
		if all := r.Replicas(key, 99); len(all) != 3 {
			t.Fatalf("Replicas(99) = %v, want all 3 members", all)
		}
	}
	if got := NewRing(nil).Owner(testKeys(1)[0]); got != "" {
		t.Errorf("empty ring owner = %q", got)
	}
	if got := NewRing([]string{"a", "a", "a"}); len(got.Members()) != 1 {
		t.Errorf("duplicate members not collapsed: %v", got.Members())
	}
}

// TestRingSingleMember: a one-node fleet always routes to itself —
// the invariant the byte-identical single-node guarantee rests on.
func TestRingSingleMember(t *testing.T) {
	r := NewRing([]string{"solo"})
	for _, key := range testKeys(100) {
		if r.Owner(key) != "solo" {
			t.Fatal("single-member ring routed elsewhere")
		}
	}
}
