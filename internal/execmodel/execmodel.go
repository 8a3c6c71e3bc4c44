// Package execmodel estimates a parallel execution time from the
// communication event streams the ACD metric summarizes — a
// LogP-flavored bulk-synchronous cost with per-processor message
// counts, hop-weighted transfer terms, and local work. It addresses
// the validation half of the paper's future-work item (ii): do the
// communication trends the ACD projects actually order modeled
// execution times the same way? The collectors read the streams pair
// by pair from the rank-pair replay (fmmmodel.VisitNFI, VisitFFI).
package execmodel

import (
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/topology"
)

// Tally accumulates per-processor costs from a communication event
// stream.
type Tally struct {
	// Sends[p] counts messages originated by rank p (self-messages are
	// free and not counted).
	Sends []uint64
	// Hops[p] sums the network hop distances of p's messages.
	Hops []uint64
	// Work[p] counts local computation units at rank p.
	Work []uint64
}

// NewTally returns a tally for p processors.
func NewTally(p int) *Tally {
	return &Tally{
		Sends: make([]uint64, p),
		Hops:  make([]uint64, p),
		Work:  make([]uint64, p),
	}
}

// Message records one message from src over the given hop distance.
func (t *Tally) Message(src int32, hops int) {
	if hops == 0 {
		return
	}
	t.Sends[src]++
	t.Hops[src] += uint64(hops)
}

// AddWork records local computation units at a rank.
func (t *Tally) AddWork(rank int32, units int) {
	t.Work[rank] += uint64(units)
}

// CostParams is the bulk-synchronous cost model: per-message overhead
// Alpha, per-hop transfer cost Beta, per-work-unit cost Gamma. The
// step time is the maximum per-processor cost (everyone waits for the
// slowest).
type CostParams struct {
	Alpha, Beta, Gamma float64
}

// Validate rejects negative parameters.
func (c CostParams) Validate() error {
	if c.Alpha < 0 || c.Beta < 0 || c.Gamma < 0 {
		return fmt.Errorf("execmodel: negative cost parameter %+v", c)
	}
	return nil
}

// Makespan returns max_p (Alpha*Sends[p] + Beta*Hops[p] +
// Gamma*Work[p]).
func (t *Tally) Makespan(c CostParams) (float64, error) {
	if err := c.Validate(); err != nil {
		return 0, err
	}
	var worst float64
	for p := range t.Sends {
		cost := c.Alpha*float64(t.Sends[p]) + c.Beta*float64(t.Hops[p]) + c.Gamma*float64(t.Work[p])
		if cost > worst {
			worst = cost
		}
	}
	return worst, nil
}

// CollectNFI tallies one FMM near-field step: every cross-processor
// pair exchange is a message charged to the sender, and every pair
// evaluation (including same-processor ones) is a unit of local work
// at the owner. The events come from the near-field replay
// (fmmmodel.VisitNFI). It is timed as an accumulation.nfi phase under
// opts.Parent, with keynav.plan beneath when it records the set's
// plan.
func CollectNFI(a *acd.Assignment, topo topology.Topology, opts fmmmodel.NFIOptions) *Tally {
	acc := opts.Parent.Child("accumulation.nfi")
	defer acc.End()
	opts.Parent = acc
	t := NewTally(topo.P())
	var pairs uint64
	fmmmodel.VisitNFI(a, opts, func(r, q int32) { t.pair(topo, r, q); pairs++ })
	topology.CountDistanceQueries(pairs)
	return t
}

// CollectFFI tallies one FMM far-field step: interpolation,
// anterpolation, and interaction-list exchanges as messages from their
// source representative, with one unit of work per event at the
// source. The events come from the far-field replay
// (fmmmodel.VisitFFI).
func CollectFFI(a *acd.Assignment, topo topology.Topology) *Tally {
	t := NewTally(topo.P())
	var pairs uint64
	pair := func(r, q int32) { t.pair(topo, r, q); pairs++ }
	fmmmodel.VisitFFI(a.KeyIndex(), 0, pair, pair)
	topology.CountDistanceQueries(pairs)
	return t
}

// pair tallies one replayed pair (r, q) as one event each way: a unit
// of work and a message over the pair's hop distance at each end. The
// symmetric near-field and interaction-list pairs stand for both
// directions, and so does a (parent, child) link, whose anterpolation
// event carries the interpolation event back.
func (t *Tally) pair(topo topology.Topology, r, q int32) {
	hops := topo.Distance(int(r), int(q))
	t.AddWork(r, 1)
	t.Message(r, hops)
	t.AddWork(q, 1)
	t.Message(q, hops)
}

// DefaultCost is a representative parameterization: message overhead
// dominates per-hop cost, and per-pair compute is cheap.
var DefaultCost = CostParams{Alpha: 1, Beta: 0.2, Gamma: 0.05}
