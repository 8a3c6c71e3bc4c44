package acd

import "fmt"

// This file extends the ACD toward the paper's future-work item (i)
// ("study the impact of data volume ... on the modeling of the ACD
// metric"): communication events can carry byte weights so that the
// metric averages hop distance per transferred byte rather than per
// message.

// WeightedAccumulator tallies communication events weighted by their
// data volume.
type WeightedAccumulator struct {
	// WeightedSum is sum(weight * hops).
	WeightedSum float64
	// Weight is the total transferred volume.
	Weight float64
	// Events counts the messages.
	Events uint64
}

// Add records one communication of the given hop distance carrying the
// given volume.
func (a *WeightedAccumulator) Add(hops int, weight float64) {
	a.WeightedSum += weight * float64(hops)
	a.Weight += weight
	a.Events++
}

// Merge folds another accumulator into this one.
func (a *WeightedAccumulator) Merge(b WeightedAccumulator) {
	a.WeightedSum += b.WeightedSum
	a.Weight += b.Weight
	a.Events += b.Events
}

// ACD returns the volume-weighted average communicated distance:
// sum(w*d)/sum(w). It is 0 when nothing was transferred.
func (a WeightedAccumulator) ACD() float64 {
	if a.Weight == 0 {
		return 0
	}
	return a.WeightedSum / a.Weight
}

// String formats the accumulator.
func (a WeightedAccumulator) String() string {
	return fmt.Sprintf("weighted acd=%.3f (events=%d, volume=%.0f)", a.ACD(), a.Events, a.Weight)
}
