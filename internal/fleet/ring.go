// Package fleet turns N acdserverd processes into one serving fleet.
// A consistent-hash ring over the content-address key space routes
// each experiment request to an owner replica; an HTTP peer protocol
// (/internal/v1/peek/{key}, /internal/v1/result/{key}) lets a node
// that misses fetch a finished result from the owner or its siblings
// instead of recomputing; and the serving layer's forward path proxies
// whole requests to the owner so the cache stays placed where the ring
// says it lives.
//
// Everything degrades gracefully: any peer error or timeout falls back
// to local computation, so a one-node fleet — and a fleet whose peers
// are all partitioned away — behaves byte-identically to the
// single-process daemon, just slower on first contact.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// virtualNodes is the ring points each member contributes. 128 points
// keep the per-member load share within a few percent of 1/N while the
// ring stays small enough to rebuild on any membership change.
const virtualNodes = 128

// ringPoint is one virtual node: a position on the 64-bit hash circle
// owned by a member.
type ringPoint struct {
	hash   uint64
	member int32 // index into Ring.members
}

// Ring is an immutable consistent-hash ring over member IDs. Routing
// is a pure function of the sorted member list, so every process that
// agrees on the membership agrees on every key's owner, with no
// coordination. Construction order does not matter.
type Ring struct {
	members []string // sorted, distinct
	points  []ringPoint
}

// NewRing builds a ring from the member IDs with virtualNodes points
// per member. Duplicate IDs are collapsed; an empty member list yields
// a ring that routes nothing.
func NewRing(memberIDs []string) *Ring {
	members := append([]string(nil), memberIDs...)
	sort.Strings(members)
	members = compact(members)
	r := &Ring{
		members: members,
		points:  make([]ringPoint, 0, len(members)*virtualNodes),
	}
	for mi, id := range members {
		for v := 0; v < virtualNodes; v++ {
			r.points = append(r.points, ringPoint{hash: pointHash(id, v), member: int32(mi)})
		}
	}
	// Ties (two members hashing one virtual node onto the same circle
	// position) are broken by member order, which is sorted-ID order —
	// deterministic regardless of input order.
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

// compact removes adjacent duplicates from a sorted slice.
func compact(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// pointHash places virtual node v of a member on the circle: the first
// 8 bytes of a sha256 over the length-framed (member, v) pair, so the
// points of "ab" vnode 1 and "ab1" vnode 0 cannot collide by
// concatenation and the placement is uniform enough that 128 points
// per member even out the arc shares.
func pointHash(member string, v int) uint64 {
	h := sha256.Sum256(fmt.Appendf(nil, "%d:%s:%d", len(member), member, v))
	return binary.BigEndian.Uint64(h[:8])
}

// Members returns the sorted member IDs.
func (r *Ring) Members() []string { return r.members }

// keyPoint maps a content-address key onto the circle. Keys are
// sha256 content addresses, so their leading 8 bytes are already
// uniform; no re-hashing needed.
func keyPoint(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// successor returns the index in points of the first virtual node at
// or clockwise of h, wrapping at the top of the circle.
func (r *Ring) successor(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the member that owns key, or "" on an empty ring.
func (r *Ring) Owner(key []byte) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.members[r.points[r.successor(keyPoint(key))].member]
}

// Replicas returns the first n distinct members clockwise of key —
// the owner first, then the sibling replicas a fleet node consults on
// a miss. n larger than the membership returns every member.
func (r *Ring) Replicas(key []byte, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.members) {
		n = len(r.members)
	}
	out := make([]string, 0, n)
	seen := make(map[int32]bool, n)
	for i, start := 0, r.successor(keyPoint(key)); i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, r.members[p.member])
		}
	}
	return out
}
