// Package commmat provides topology-independent communication
// matrices: sparse aggregations of a communication event stream by
// (src, dst) rank pair, in CSR form.
//
// The paper's model (§IV) makes the event stream of an assignment
// independent of the network. A matrix folds the stream's events into
// distinct rank pairs, and contracting it against a topology — the sum
// of count x hop distance over its pairs — reproduces the per-event
// accumulator exactly. This is the communication-matrix formulation of
// the topology-mapping literature (Hoefler & Snir; hop-byte metrics),
// specialized to exact event counts. No experiment reads one: every
// consumer of the rank pairs replays the stream itself
// (fmmmodel.VisitNFI, VisitFFI). Matrices serve the benchmark's
// matrix-path breakdown, incr.State.Matrix and the differential
// oracles.
//
// Build with a Builder, which logs the events one goroutine adds, and
// Finalize counts them into the immutable Matrix. Contract with
// ContractTableMulti against the distance tables
// (topology.DistanceTable) of one or more topologies: a plain row loop
// over each pair's Distance (see contract.go). Event streams whose
// pair relation is symmetric (near field, interaction lists) are
// aggregated in canonical src <= dst form — each unordered pair
// recorded once — and contracted with ContractTableMultiSym, which
// weights every pair by both directions.
package commmat

import (
	"slices"

	"sfcacd/internal/obs"
)

// Build-volume counters: "commmat.events" counts aggregated
// communication events, "commmat.pairs" distinct (src, dst) rank pairs;
// their ratio is the dedup factor the contraction exploits.
var (
	eventsCounter = obs.GetCounter("commmat.events")
	pairsCounter  = obs.GetCounter("commmat.pairs")
	buildsCounter = obs.GetCounter("commmat.builds")
)

// Matrix is an immutable communication matrix over p processor ranks:
// for every (src, dst) rank pair, the number of communication events
// from src to dst. Zero-count pairs are not represented. Build one with
// a Builder.
type Matrix struct {
	p      int
	events uint64
	pairs  int
	// diag is the event total of the diagonal (src == dst) pairs.
	// Because hop distance is a metric — zero iff the ranks are equal —
	// a contraction's Count is always events and its Zeros always diag,
	// whatever the topology, so the contraction reads both here instead
	// of tallying them per table.
	diag uint64
	// rowSrc lists the distinct source ranks in ascending order; row
	// r's pairs are dsts/counts[rowStart[r]:rowStart[r+1]], with dsts
	// ascending within the row.
	rowSrc   []int32
	rowStart []int32
	dsts     []int32
	counts   []uint32
}

// Events returns the total number of aggregated communication events.
func (m *Matrix) Events() uint64 { return m.events }

// Pairs returns the number of distinct (src, dst) pairs with at least
// one event.
func (m *Matrix) Pairs() int { return m.pairs }

// Equal reports whether two matrices hold identical aggregations: the
// same rank count, total events, and per-pair counts, which lets
// differential oracles compare matrices built along different paths
// byte-for-byte at the pair level.
func Equal(a, b *Matrix) bool {
	return a.p == b.p && a.events == b.events &&
		slices.Equal(a.rowSrc, b.rowSrc) && slices.Equal(a.rowStart, b.rowStart) &&
		slices.Equal(a.dsts, b.dsts) && slices.Equal(a.counts, b.counts)
}

// Builder aggregates a communication event stream into a Matrix: a
// log of its events, which Finalize counts. Feed it from one goroutine
// at a time.
type Builder struct {
	p      int
	events []event
}

type event struct{ src, dst int32 }

// NewBuilder returns a builder over p ranks.
func NewBuilder(p int) *Builder {
	if p < 1 {
		panic("commmat: builder needs at least 1 rank")
	}
	return &Builder{p: p}
}

// Add records one communication event from src to dst. Both must be in
// [0, p).
func (b *Builder) Add(src, dst int32) {
	b.events = append(b.events, event{src, dst})
}

// Finalize counts the logged events into the immutable Matrix and
// records the build in the commmat metrics, and its time as a
// commmat.finalize phase under parent (nil records none). The builder
// must not be reused after.
//
// It counts the events of each source row, scatters every event's
// destination into its row, and sorts each row and collapses its runs
// of equal destinations into (dst, count) pairs, tallying the diagonal
// on the way. The rows come out in rank order and sorted, so the
// matrix does not depend on the order the events were added in.
func (b *Builder) Finalize(parent *obs.Span) *Matrix {
	defer parent.Child("commmat.finalize").End()
	p := b.p
	start := make([]int, p+1)
	for _, e := range b.events {
		start[e.src+1]++
	}
	for r := range p {
		start[r+1] += start[r]
	}
	dsts := make([]int32, start[p])
	next := slices.Clone(start[:p])
	for _, e := range b.events {
		dsts[next[e.src]] = e.dst
		next[e.src]++
	}
	b.events = nil

	m := &Matrix{p: p, events: uint64(len(dsts)), rowStart: []int32{0}}
	var counts []uint32
	pairs := 0 // the collapse writes dsts[pairs], never ahead of the row it reads
	for src := range p {
		row := dsts[start[src]:start[src+1]]
		if len(row) == 0 {
			continue
		}
		slices.Sort(row)
		for i := 0; i < len(row); {
			d, j := row[i], i+1
			for j < len(row) && row[j] == d {
				j++
			}
			if d == int32(src) {
				m.diag += uint64(j - i)
			}
			dsts[pairs] = d
			counts = append(counts, uint32(j-i))
			pairs++
			i = j
		}
		m.rowSrc = append(m.rowSrc, int32(src))
		m.rowStart = append(m.rowStart, int32(pairs))
	}
	m.pairs = pairs
	m.dsts = slices.Clone(dsts[:pairs])
	m.counts = counts
	buildsCounter.Inc()
	eventsCounter.Add(m.events)
	pairsCounter.Add(uint64(m.pairs))
	return m
}
