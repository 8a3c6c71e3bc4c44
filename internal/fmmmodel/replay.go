package fmmmodel

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/keynav"
)

// This file is the rank-pair replay (see the package doc). Each
// visitor walks its streams serially in plan order and calls back once
// per pair; every consumer sums integers, so the order cannot reach a
// result.

// VisitNFI calls fn(r, q) once per near-field pair of the assignment's
// particle set, with the ranks owning its two particles; each call
// stands for one event each way. The pairs come from the set's
// near-field plan, recorded on first use with opts.Workers under
// opts.Parent.
func VisitNFI(a *acd.Assignment, opts NFIOptions, fn func(r, q int32)) {
	opts.normalize()
	ix := a.KeyIndex()
	reps := ix.Reps(ix.Order)
	for _, chunk := range ix.Set().Plan(opts.Parent, opts.Spec(), opts.Workers).Near(opts.Radius, opts.Metric) {
		for _, pr := range chunk {
			fn(reps[pr.A], reps[pr.B])
		}
	}
}

// VisitFFI replays the far-field streams of the labelling ix: it calls
// link(parent, child) once per parent-child link of every level, with
// the two cells' representatives, and il(r, q) once per
// interaction-list pair. A link stands for one interpolation event and
// its anterpolation reverse, an interaction-list pair for one event
// each way. The interaction lists come from the set's far-field plan,
// recorded on first use on up to workers goroutines (0 means
// GOMAXPROCS), without phases.
func VisitFFI(ix *keynav.Index, workers int, link, il func(r, q int32)) {
	pl := ix.Set().Plan(nil, keynav.Spec{Far: true}, workers)
	for l := ix.Order; l >= 1; l-- {
		parents, start, reps := ix.Reps(l-1), ix.ChildStart(l-1), ix.Reps(l)
		for j, pr := range parents {
			for _, r := range reps[start[j]:start[j+1]] {
				link(pr, r)
			}
		}
	}
	for l := uint(2); l <= ix.Order; l++ {
		reps := ix.Reps(l)
		for _, chunk := range pl.IL(l) {
			for _, pr := range chunk {
				il(reps[pr.A], reps[pr.B])
			}
		}
	}
}
