// Package fmmmodel implements the paper's abstraction (§III–IV) of the
// Fast Multipole Method's communication structure and computes the
// Average Communicated Distance it induces on a given network.
//
// Two interaction families are modeled separately, as in the paper:
//
//   - Near-field interactions (NFI): every particle exchanges data with
//     every particle within spatial radius r; each exchange costs the
//     network hop distance between the owning processors.
//   - Far-field interactions (FFI): the quadtree-structured
//     interpolation (upward accumulation), anterpolation (downward
//     accumulation), and interaction-list exchanges, between per-cell
//     representative processors (the minimum rank in the cell).
//
// Every ACD consumer prices the event stream on replay: the skeleton
// of the assignment's particle set (keynav.Set) records the
// event-producing cell pairs as a plan, and NFIMulti and FFIMulti
// replay the plan against the assignment's labelling straight into the
// distance kernels of any number of topologies, through a per-worker
// flush buffer of events: tori are priced four at a time in one pass,
// every other topology through its own kernel (multi.go). The plan does
// not depend on the ranks, so the set records it once, for the first
// assignment priced, and every other assignment of the set replays it.
//
// Consumers that need the rank pairs themselves rather than their
// distance sums — per-rank tallies (internal/execmodel), link routing
// (internal/contention) — read the same replay through VisitNFI and
// VisitFFI (replay.go), which call back once per event pair with its
// two ranks. NFIMatrix and FFIMatricesFromIndex (matrix.go) fold that
// replay into communication matrices (internal/commmat) for the
// benchmark's matrix-path breakdown and the tests. The direct
// per-event traversal survives only as the oracle in this package's
// tests.
//
// The model is contention-unaware: distances are shortest-path hop
// counts regardless of concurrent traffic (§IV step 6).
package fmmmodel

import (
	"runtime"

	"sfcacd/internal/acd"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
)

// NFIOptions configures the near-field model.
type NFIOptions struct {
	// Radius is the neighborhood radius r (default 1: the 8
	// edge/corner-adjacent cells).
	Radius int
	// Metric selects the neighborhood shape; the paper's near-field
	// bound ("at most 8" for r=1) corresponds to Chebyshev.
	Metric geom.Metric
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Parent is the span the call's phases open under; nil records
	// none.
	Parent *obs.Span
}

func (o *NFIOptions) normalize() {
	if o.Radius == 0 {
		o.Radius = 1
	}
	if o.Workers <= 0 {
		o.Workers = defaultWorkers()
	}
}

// Spec returns the keynav.Spec whose plan serves these options' near
// field, with the defaults applied (radius 0 means 1).
func (o NFIOptions) Spec() keynav.Spec {
	o.normalize()
	return keynav.Spec{Radius: o.Radius, Metric: o.Metric}
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// FFIResult breaks the far-field ACD into the paper's three
// communication types.
type FFIResult struct {
	// Interpolation is the upward accumulation: each occupied cell's
	// representative sends to its parent cell's representative, at
	// every level.
	Interpolation acd.Accumulator
	// Anterpolation is the downward accumulation: the same links
	// traversed parent-to-child.
	Anterpolation acd.Accumulator
	// InteractionList covers the well-separated cell exchanges at every
	// level (children of the parent's neighbors not adjacent to the
	// cell).
	InteractionList acd.Accumulator
}

// Total merges the three accumulators: §IV step 10.
func (r FFIResult) Total() acd.Accumulator {
	var t acd.Accumulator
	t.Merge(r.Interpolation)
	t.Merge(r.Anterpolation)
	t.Merge(r.InteractionList)
	return t
}

// record publishes the three final accumulators. It leaves the
// distance-query counter alone: the pricers and the contractions
// account for their own (far fewer) analytic queries.
func (r FFIResult) record() {
	r.Interpolation.Record()
	r.Anterpolation.Record()
	r.InteractionList.Record()
}

// FFIOptions configures the far-field model.
type FFIOptions struct {
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// Parent is the span the call's phases open under; nil records
	// none.
	Parent *obs.Span
}
