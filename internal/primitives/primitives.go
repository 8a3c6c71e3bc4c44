// Package primitives computes the Average Communicated Distance of the
// standard parallel communication patterns discussed in the paper's
// §VII: broadcast/reduce log-trees, all-to-all, parallel prefix, ring
// exchange, and the quad log-tree gather that underlies the FMM
// far-field model. Given a topology (and thus a processor-order SFC
// placement for mesh/torus), an algorithm designer can evaluate each
// primitive's ACD in advance and pick the curve that minimizes
// communication for the application's mix of primitives.
package primitives

import (
	"runtime"

	"sfcacd/internal/acd"
	"sfcacd/internal/panics"
	"sfcacd/internal/topology"
)

// Broadcast returns the ACD accumulator of a binomial-tree broadcast
// from the given root: in round j, every rank r < 2^j relative to the
// root sends to r + 2^j. Reduce is the same tree traversed upward and
// has an identical accumulator.
func Broadcast(topo topology.Topology, root int) acd.Accumulator {
	p := topo.P()
	var res acd.Accumulator
	for stride := 1; stride < p; stride *= 2 {
		for r := 0; r < stride && r+stride < p; r++ {
			src := (root + r) % p
			dst := (root + r + stride) % p
			res.Add(topo.Distance(src, dst))
		}
	}
	return res
}

// Reduce returns the ACD of a binomial-tree reduction to the root; by
// symmetry it equals Broadcast.
func Reduce(topo topology.Topology, root int) acd.Accumulator {
	return Broadcast(topo, root)
}

// AllToAll returns the ACD of a complete exchange: every ordered pair
// of distinct ranks communicates once. O(p^2), parallelized over
// source ranks (integer sums, so the result is deterministic).
func AllToAll(topo topology.Topology) acd.Accumulator {
	p := topo.P()
	workers := min(runtime.GOMAXPROCS(0), p)
	chunk := (p + workers - 1) / workers
	parts := make([]acd.Accumulator, workers)
	panics.Parallel(workers, workers, func(_, task int) {
		var local acd.Accumulator
		for i := task * chunk; i < min((task+1)*chunk, p); i++ {
			for j := 0; j < p; j++ {
				if i != j {
					local.Add(topo.Distance(i, j))
				}
			}
		}
		parts[task] = local
	})
	var res acd.Accumulator
	for _, part := range parts {
		res.Merge(part)
	}
	return res
}

// ParallelPrefix returns the ACD of a Hillis–Steele inclusive scan: in
// round j every rank i >= 2^j receives from i - 2^j.
func ParallelPrefix(topo topology.Topology) acd.Accumulator {
	p := topo.P()
	var res acd.Accumulator
	for stride := 1; stride < p; stride *= 2 {
		for i := stride; i < p; i++ {
			res.Add(topo.Distance(i-stride, i))
		}
	}
	return res
}

// RingExchange returns the ACD of a full ring shift: rank i sends to
// rank (i+1) mod p.
func RingExchange(topo topology.Topology) acd.Accumulator {
	p := topo.P()
	var res acd.Accumulator
	for i := 0; i < p; i++ {
		res.Add(topo.Distance(i, (i+1)%p))
	}
	return res
}

// QuadTreeGather returns the ACD of the quad log-tree gather used by
// the FMM far-field model (§IV step 6): at every level, the leader
// (lowest rank) of each group of four consecutive blocks collects from
// the other three block leaders. p need not be a power of four; ragged
// tails simply produce smaller groups.
func QuadTreeGather(topo topology.Topology) acd.Accumulator {
	p := topo.P()
	var res acd.Accumulator
	for block := 1; block < p; block *= 4 {
		group := block * 4
		for base := 0; base < p; base += group {
			for k := 1; k < 4; k++ {
				child := base + k*block
				if child < p {
					res.Add(topo.Distance(base, child))
				}
			}
		}
	}
	return res
}

// Pattern names a primitive for table-driven sweeps.
type Pattern struct {
	// Name is the primitive's display name.
	Name string
	// Run computes the primitive's accumulator on a topology.
	Run func(topology.Topology) acd.Accumulator
}

// Patterns lists the §VII primitives evaluated by the GEN experiment.
func Patterns() []Pattern {
	return []Pattern{
		{Name: "broadcast", Run: func(t topology.Topology) acd.Accumulator { return Broadcast(t, 0) }},
		{Name: "alltoall", Run: AllToAll},
		{Name: "prefix", Run: ParallelPrefix},
		{Name: "ring", Run: RingExchange},
		{Name: "quadgather", Run: QuadTreeGather},
	}
}
