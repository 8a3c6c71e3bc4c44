package topology

// DistanceTable is a handle on one topology that identifies a priced
// network across calls: internal/commmat contracts matrices against
// its Underlying topology, and internal/incr keeps one maintained
// accumulator per table. It memoizes no distances; every contraction
// asks the topology itself, one Distance call per pair.
type DistanceTable struct {
	topo Topology
}

// NewDistanceTable wraps a topology.
func NewDistanceTable(t Topology) *DistanceTable { return &DistanceTable{topo: t} }

// Underlying returns the wrapped topology.
func (dt *DistanceTable) Underlying() Topology { return dt.topo }
