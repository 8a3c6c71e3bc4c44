package acd

import (
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/partition"
)

// This file is the delta-assignment half of the incremental pipeline
// (internal/incr): instead of re-running the full §IV ordering +
// partitioning at every timestep, the maintainer keeps last tick's
// sorted permutation and ownership and recomputes owners only for the
// particles whose position in curve order crossed a chunk boundary.

// OwnerDelta records one particle whose owning rank changes when the
// balanced-chunk partition is reapplied to the current curve order.
// ID is the particle's stable identity (its index in the maintainer's
// identity-ordered arrays), not its sorted position.
type OwnerDelta struct {
	ID       int
	Old, New int32
}

// DeltaOwners compares the owners implied by the current sorted
// permutation against the recorded ones and appends an OwnerDelta for
// every mismatch to out (which is returned, append-style). perm holds
// particle identities in curve order; owners holds the recorded rank
// per identity. Nothing is mutated — the caller decides whether to
// apply the deltas or to trigger a full repartition instead, after
// inspecting the drift gauge len(result)/n.
//
// The scan walks rank ranges (partition.Start/End) rather than calling
// ChunkOf per particle: the target rank is constant across each range,
// so the common all-owners-match case costs one comparison per
// particle.
func DeltaOwners(perm []int, owners []int32, p int, out []OwnerDelta) []OwnerDelta {
	n := len(perm)
	for r := 0; r < p; r++ {
		lo, hi := partition.Start(r, n, p), partition.End(r, n, p)
		for i := lo; i < hi; i++ {
			id := perm[i]
			if old := owners[id]; old != int32(r) {
				out = append(out, OwnerDelta{ID: id, Old: old, New: int32(r)})
			}
		}
	}
	return out
}

// RepartitionPolicy decides, from the drift gauge (fraction of
// particles whose owner changed this tick), whether the owner churn
// calls for repartitioning on this tick. It is a hysteresis loop:
// flagging starts when the gauge reaches Hi and continues until it
// falls below Lo, so a workload oscillating around a single threshold
// does not flap. internal/incr reports each decision
// (TickStats.Repartitioned) and maintains its state by delta either
// way.
type RepartitionPolicy struct {
	// Hi is the gauge at or above which flagging engages.
	Hi float64
	// Lo is the gauge below which flagging disengages.
	Lo float64

	engaged bool
}

// DefaultRepartitionPolicy returns the policy used by the registry
// experiments: flag ticks from 25% owner churn until it falls below
// 10%.
func DefaultRepartitionPolicy() RepartitionPolicy {
	return RepartitionPolicy{Hi: 0.25, Lo: 0.10}
}

// Decide consumes one tick's drift gauge and reports whether this tick
// is flagged for a repartition. Call it exactly once per tick: the
// hysteresis state advances on every call.
func (rp *RepartitionPolicy) Decide(gauge float64) bool {
	if rp.engaged {
		if gauge < rp.Lo {
			rp.engaged = false
		}
	} else if gauge >= rp.Hi {
		rp.engaged = true
	}
	return rp.engaged
}

// FromSorted builds an Assignment from particles already in curve
// order with distinct cells — the incremental maintainer's bridge back
// to the batch ACD model, which skips the curve sort Assign would redo.
// It builds a private skeleton of the particles (which rejects
// duplicate cells) and labels it with the balanced consecutive chunks;
// the caller guarantees the curve order, which is not re-verified. It
// records no phases.
func FromSorted(particles []geom.Point, order uint, p int) (*Assignment, error) {
	set, err := keynav.NewSet(nil, order, particles)
	if err != nil {
		return nil, err
	}
	return FromOwners(nil, set, chunkRanks(len(particles), p), p)
}
