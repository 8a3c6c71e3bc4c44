// Package execmodel estimates a parallel execution time from the
// communication event streams the ACD metric summarizes — a
// LogP-flavored bulk-synchronous cost with per-processor message
// counts, hop-weighted transfer terms, and local work. It addresses
// the validation half of the paper's future-work item (ii): do the
// communication trends the ACD projects actually order modeled
// execution times the same way?
package execmodel

import (
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
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
// at the owner. The events come from the near-field communication
// matrix (fmmmodel.NFIMatrix). It is timed as an accumulation.nfi phase
// under opts.Parent, with the matrix build beneath.
func CollectNFI(a *acd.Assignment, topo topology.Topology, opts fmmmodel.NFIOptions) *Tally {
	acc := opts.Parent.Child("accumulation.nfi")
	defer acc.End()
	opts.Parent = acc
	t := NewTally(topo.P())
	t.addCanonical(fmmmodel.NFIMatrix(a, opts), topo)
	return t
}

// CollectFFI tallies one FMM far-field step: interpolation,
// anterpolation, and interaction-list exchanges as messages from their
// source representative, with one unit of work per event at the
// source. The events come from the far-field communication matrices
// (fmmmodel.FFIMatricesFromIndex).
func CollectFFI(a *acd.Assignment, topo topology.Topology) *Tally {
	t := NewTally(topo.P())
	ms := fmmmodel.FFIMatricesFromIndex(a.KeyIndex(), topo.P(), 0)
	t.addCanonical(ms.Interpolation, topo)
	t.addCanonical(ms.InteractionList, topo)
	return t
}

// addCanonical tallies a matrix whose pairs stand for their events in
// both directions — the symmetric-canonical near-field and
// interaction-list matrices, and the interpolation matrix, whose
// (parent, child) links carry the anterpolation events back. A pair
// (s, d, n) is n events s -> d plus n events d -> s, so a diagonal
// pair adds 2n units of work at s.
func (t *Tally) addCanonical(m *commmat.Matrix, topo topology.Topology) {
	m.Visit(func(s, d int32, n uint32) {
		hops := topo.Distance(int(s), int(d))
		t.addEvents(s, hops, n)
		t.addEvents(d, hops, n)
	})
	topology.CountDistanceQueries(uint64(m.Pairs()))
}

// addEvents records n events sent by src over the given hop distance:
// n units of work and, unless the events stay on src, n messages.
func (t *Tally) addEvents(src int32, hops int, n uint32) {
	t.Work[src] += uint64(n)
	if hops == 0 {
		return
	}
	t.Sends[src] += uint64(n)
	t.Hops[src] += uint64(hops) * uint64(n)
}

// DefaultCost is a representative parameterization: message overhead
// dominates per-hop cost, and per-pair compute is cheap.
var DefaultCost = CostParams{Alpha: 1, Beta: 0.2, Gamma: 0.05}
