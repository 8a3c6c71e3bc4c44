// Package commmat provides topology-independent communication
// matrices: sparse aggregations of a communication event stream by
// (src, dst) rank pair, in CSR form.
//
// The paper's model (§IV) makes the event stream of an assignment
// independent of the network, and chunk-monotone rank assignment makes
// it highly repetitive: a near-field or interaction-list traversal
// touches far fewer distinct rank pairs than events. A matrix keeps
// those pairs for the consumers that need them (per-rank tallies,
// link routing), and contracting it against a topology — the sum of
// count x hop distance over its pairs — reproduces the per-event
// accumulator exactly. This is the communication-matrix formulation
// of the topology-mapping literature (Hoefler & Snir; hop-byte
// metrics), specialized to exact event counts.
//
// Build with a Builder (one Shard per concurrent worker, merged into an
// immutable Matrix by Finalize), then contract with ContractTableMulti
// against the distance tables (topology.DistanceTable) of one or more
// topologies: a plain row loop through each topology's own DistanceSum
// (see contract.go). Event streams whose pair relation is symmetric
// (near field, interaction lists) are best aggregated in canonical
// src <= dst form — each unordered pair recorded once — and contracted
// with ContractTableMultiSym, which weights every pair by both
// directions.
//
// Aggregation is hash-free on the hot path: events count directly into
// a pooled scratch grid with a one-bit-per-pair occupancy bitmap.
// Chunk-monotone assignments keep communicating ranks close, so for
// large p the grid stores only a band of dst-src deltas per source row
// — a working set that fits cache where a full p x p grid cannot — and
// the rare out-of-band pair lands in a small per-shard overflow map.
// Finalize emits the matrix by scanning the bitmap's set bits (already
// in (src, dst) order, merged with the sorted overflow), zeroing the
// scratch behind itself for reuse.
package commmat

import (
	"math/bits"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"sfcacd/internal/obs"
)

// Build-volume counters: "commmat.events" counts aggregated
// communication events, "commmat.pairs" distinct (src, dst) rank pairs.
// Their ratio is the dedup factor the contraction exploits; cmd/acdbench
// derives the "commmat.dedup_ratio" gauge from them for run manifests.
var (
	eventsCounter = obs.GetCounter("commmat.events")
	pairsCounter  = obs.GetCounter("commmat.pairs")
	buildsCounter = obs.GetCounter("commmat.builds")
)

// maxScratchCells caps the scratch grid at 32 MiB of uint32. Up to
// that budget the grid covers all of p x p; past it each source row
// covers a band of dst-src deltas (p = 4096 gets a 2048-wide band,
// p = 65536 a 128-wide one), and below one 64-cell bitmap word per row
// aggregation is purely overflow-based.
const maxScratchCells = 1 << 23

// scratchStride returns the scratch-grid row width for p ranks: p
// itself (full grid), a delta band, or 0 for overflow-only
// aggregation. Band strides are multiples of 64 so bitmap words never
// straddle rows.
func scratchStride(p int) int {
	if p*p <= maxScratchCells {
		return p
	}
	return (maxScratchCells / p) &^ 63
}

// scratch is a reusable aggregation grid: counts plus an occupancy
// bitmap. Finalize re-zeroes it and returns it to the free list, which
// holds strong references so the grids survive garbage collection.
type scratch struct {
	grid []uint32
	bm   []uint64
}

var (
	scratchMu   sync.Mutex
	scratchFree []*scratch
)

// scratchKeep bounds the free list at the grids a sweep's builders
// hold at once: a sweep runs up to GOMAXPROCS cells, and each holds two
// grids during its far-field build. The floor of 8 covers two
// concurrent sweeps (the daemon's compute slots) on small machines.
func scratchKeep() int { return max(8, 2*runtime.GOMAXPROCS(0)) }

// getScratch hands out the smallest free grid that covers the request
// (so a large grid stays free for the next large request), or a new
// one.
func getScratch(cells int) *scratch {
	words := (cells + 63) / 64
	scratchMu.Lock()
	best := -1
	for i, s := range scratchFree {
		if len(s.grid) >= cells && len(s.bm) >= words && (best < 0 || len(s.grid) < len(scratchFree[best].grid)) {
			best = i
		}
	}
	if best >= 0 {
		s := scratchFree[best]
		last := len(scratchFree) - 1
		scratchFree[best] = scratchFree[last]
		scratchFree[last] = nil
		scratchFree = scratchFree[:last]
		scratchMu.Unlock()
		return s
	}
	scratchMu.Unlock()
	return &scratch{grid: make([]uint32, cells), bm: make([]uint64, words)}
}

func putScratch(s *scratch) {
	scratchMu.Lock()
	if len(scratchFree) < scratchKeep() {
		scratchFree = append(scratchFree, s)
	}
	scratchMu.Unlock()
}

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

// Visit calls fn for every pair with a nonzero count, in ascending
// (src, dst) order.
func (m *Matrix) Visit(fn func(src, dst int32, n uint32)) {
	for r, src := range m.rowSrc {
		for i := m.rowStart[r]; i < m.rowStart[r+1]; i++ {
			fn(src, m.dsts[i], m.counts[i])
		}
	}
}

// Equal reports whether two matrices hold identical aggregations: the
// same rank count, total events, and per-pair counts, which lets
// differential oracles compare matrices built along different paths
// byte-for-byte at the pair level.
func Equal(a, b *Matrix) bool {
	if a.p != b.p || a.events != b.events || a.pairs != b.pairs {
		return false
	}
	type pair struct {
		src, dst int32
		n        uint32
	}
	as := make([]pair, 0, a.pairs)
	a.Visit(func(src, dst int32, n uint32) {
		as = append(as, pair{src, dst, n})
	})
	i := 0
	ok := true
	b.Visit(func(src, dst int32, n uint32) {
		if !ok || i >= len(as) {
			ok = false
			return
		}
		if p := as[i]; p.src != src || p.dst != dst || p.n != n {
			ok = false
		}
		i++
	})
	return ok && i == len(as)
}

// Builder aggregates a communication event stream into a Matrix.
// Create one Shard per concurrent producer; each Shard must be fed from
// a single goroutine at a time. Finalize (single goroutine, after all
// producers stop) merges the shards into the immutable Matrix.
type Builder struct {
	p      int
	stride int      // scratch row width; 0 = overflow-only aggregation
	scr    *scratch // shared by all shards when stride > 0
	shards []*Shard
}

// NewBuilder returns a builder over p ranks with the given number of
// shards (clamped to at least one).
func NewBuilder(p, workers int) *Builder { return NewBuilderBanded(p, workers, 0) }

// NewBuilderBanded is NewBuilder plus a caller hint that nearly all of
// the stream's dst-src deltas fall in [0, band): the scratch grid then
// covers only that band per source row, shrinking its working set to
// cache-resident size. The hint is purely a performance knob — pairs
// outside the band stay exact through the overflow log — and is
// ignored when the default grid is at least as small.
func NewBuilderBanded(p, workers, band int) *Builder {
	if p < 1 {
		panic("commmat: builder needs at least 1 rank")
	}
	if workers < 1 {
		workers = 1
	}
	stride := scratchStride(p)
	if band > 0 {
		if hb := (band + 63) &^ 63; hb < stride {
			stride = hb
		}
	}
	b := &Builder{p: p, stride: stride, shards: make([]*Shard, workers)}
	if b.stride > 0 {
		b.scr = getScratch(p * b.stride)
	}
	for i := range b.shards {
		s := &Shard{p: int32(p), stride: b.stride, full: b.stride == b.p, shared: workers > 1}
		if b.scr != nil {
			s.grid, s.bm = b.scr.grid, b.scr.bm
		}
		b.shards[i] = s
	}
	return b
}

// Shard returns shard i (0 <= i < workers).
func (b *Builder) Shard(i int) *Shard { return b.shards[i] }

// Shard is one producer-side view of the aggregation. In grid mode
// events count straight into the builder's shared scratch (atomically
// when there are concurrent shards); pairs outside a banded grid's
// delta range — and every pair in overflow-only mode — append to the
// shard-local overflow log, which Finalize sorts and run-length
// collapses.
type Shard struct {
	p      int32
	stride int
	full   bool // grid rows span all of [0, p), not a delta band
	shared bool
	grid   []uint32
	bm     []uint64
	over   []uint64 // one packed (src, dst) key per overflow event
}

// Add records one communication event from src to dst. Both must be in
// [0, p). Streams aggregated in canonical src <= dst order stay on the
// banded fast path; arbitrary pairs remain correct via the overflow
// log.
func (s *Shard) Add(src, dst int32) {
	var idx int
	if s.full {
		idx = int(src)*s.stride + int(dst)
	} else {
		d := int(dst) - int(src)
		if uint(d) >= uint(s.stride) {
			s.over = append(s.over, uint64(uint32(src))<<32|uint64(uint32(dst)))
			return
		}
		idx = int(src)*s.stride + d
	}
	// The occupancy bit only needs setting when the count leaves zero —
	// once per distinct pair, not once per event.
	if s.shared {
		if atomic.AddUint32(&s.grid[idx], 1) == 1 {
			orBit(s.bm, idx)
		}
		return
	}
	c := s.grid[idx]
	s.grid[idx] = c + 1
	if c == 0 {
		s.bm[idx>>6] |= 1 << (uint(idx) & 63)
	}
}

// orBit sets a bitmap bit atomically (compare-and-swap loop).
func orBit(bm []uint64, idx int) {
	addr := &bm[idx>>6]
	bit := uint64(1) << (uint(idx) & 63)
	for {
		old := atomic.LoadUint64(addr)
		if old&bit != 0 {
			return
		}
		if atomic.CompareAndSwapUint64(addr, old, old|bit) {
			return
		}
	}
}

// Finalize merges all shards into the immutable Matrix and records the
// build in the commmat metrics. The builder must not be reused after.
func (b *Builder) Finalize() *Matrix {
	defer obs.StartSpan("commmat.finalize").End()
	m := &Matrix{p: b.p}
	keys, counts := b.mergedOverflow()
	if b.scr != nil {
		b.finalizeGrid(m, keys, counts)
	} else {
		b.finalizeOverflow(m, keys, counts)
	}
	m.computeDiag()
	b.shards = nil
	buildsCounter.Inc()
	eventsCounter.Add(m.events)
	pairsCounter.Add(uint64(m.pairs))
	return m
}

// mergedOverflow concatenates the shards' overflow logs, sorts them,
// and run-length collapses the result into unique ascending (src, dst)
// keys with per-pair counts.
func (b *Builder) mergedOverflow() ([]uint64, []uint32) {
	total := 0
	for _, s := range b.shards {
		total += len(s.over)
	}
	if total == 0 {
		return nil, nil
	}
	all := make([]uint64, 0, total)
	for _, s := range b.shards {
		all = append(all, s.over...)
		s.over = nil
	}
	slices.Sort(all)
	keys := all[:0] // in-place: the write index never passes the read index
	counts := make([]uint32, 0, 16)
	for i := 0; i < len(all); {
		k := all[i]
		j := i + 1
		for j < len(all) && all[j] == k {
			j++
		}
		keys = append(keys, k)
		counts = append(counts, uint32(j-i))
		i = j
	}
	return keys, counts
}

// finalizeGrid emits the matrix by scanning the occupancy bitmap — set
// bits come out in ascending (src, dst) order — merging any out-of-band
// overflow in place, and zeroes the scratch behind itself before
// returning it to the free list.
func (b *Builder) finalizeGrid(m *Matrix, keys []uint64, kcounts []uint32) {
	grid, bm := b.scr.grid, b.scr.bm
	cells := b.p * b.stride
	words := (cells + 63) / 64
	pairs := len(keys)
	for w := 0; w < words; w++ {
		pairs += bits.OnesCount64(bm[w])
	}
	if b.stride == b.p {
		// Full grid: the global bit order is already (src, dst) order
		// and there is no overflow.
		m.rowStart = append(m.rowStart, 0)
		m.dsts = make([]int32, 0, pairs)
		m.counts = make([]uint32, 0, pairs)
		curSrc, rowBase, rowEnd := int32(0), 0, b.stride
		open := false
		for w := 0; w < words; w++ {
			word := bm[w]
			if word == 0 {
				continue
			}
			bm[w] = 0
			for word != 0 {
				idx := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if idx >= rowEnd {
					if open {
						m.rowStart = append(m.rowStart, int32(len(m.dsts)))
						open = false
					}
					for idx >= rowEnd {
						curSrc++
						rowBase = rowEnd
						rowEnd += b.stride
					}
				}
				if !open {
					m.rowSrc = append(m.rowSrc, curSrc)
					open = true
				}
				n := grid[idx]
				grid[idx] = 0
				m.dsts = append(m.dsts, int32(idx-rowBase))
				m.counts = append(m.counts, n)
				m.events += uint64(n)
			}
		}
		if open {
			m.rowStart = append(m.rowStart, int32(len(m.dsts)))
		}
		m.pairs = len(m.dsts)
	} else {
		// Banded grid: walk row by row (band strides are multiples of
		// 64), interleaving overflow pairs on the correct side of the
		// band to keep dst ascending within each row.
		m.rowStart = append(m.rowStart, 0)
		m.dsts = make([]int32, 0, pairs)
		m.counts = make([]uint32, 0, pairs)
		rowWords := b.stride / 64
		k := 0
		for src := int32(0); src < int32(b.p); src++ {
			before := len(m.dsts)
			for k < len(keys) && int32(keys[k]>>32) == src && int32(keys[k]) < src {
				m.dsts = append(m.dsts, int32(keys[k]))
				m.counts = append(m.counts, kcounts[k])
				m.events += uint64(kcounts[k])
				k++
			}
			base := int(src) * b.stride
			w0 := base / 64
			for rw := 0; rw < rowWords; rw++ {
				word := bm[w0+rw]
				if word == 0 {
					continue
				}
				bm[w0+rw] = 0
				for word != 0 {
					idx := (w0+rw)<<6 + bits.TrailingZeros64(word)
					word &= word - 1
					n := grid[idx]
					grid[idx] = 0
					m.dsts = append(m.dsts, src+int32(idx-base))
					m.counts = append(m.counts, n)
					m.events += uint64(n)
				}
			}
			for k < len(keys) && int32(keys[k]>>32) == src {
				m.dsts = append(m.dsts, int32(keys[k]))
				m.counts = append(m.counts, kcounts[k])
				m.events += uint64(kcounts[k])
				k++
			}
			if len(m.dsts) > before {
				m.rowSrc = append(m.rowSrc, src)
				m.rowStart = append(m.rowStart, int32(len(m.dsts)))
			}
		}
		m.pairs = len(m.dsts)
	}
	putScratch(b.scr)
	b.scr = nil
}

// finalizeOverflow emits the sorted CSR form straight from the merged
// overflow log — the fallback for rank counts whose grid would not fit
// the scratch budget.
func (b *Builder) finalizeOverflow(m *Matrix, keys []uint64, kcounts []uint32) {
	m.pairs = len(keys)
	m.rowStart = append(m.rowStart, 0)
	m.dsts = make([]int32, len(keys))
	m.counts = make([]uint32, len(keys))
	copy(m.counts, kcounts)
	for i, k := range keys {
		src := int32(k >> 32)
		if len(m.rowSrc) == 0 || m.rowSrc[len(m.rowSrc)-1] != src {
			m.rowSrc = append(m.rowSrc, src)
			m.rowStart = append(m.rowStart, int32(i))
		}
		m.rowStart[len(m.rowStart)-1] = int32(i + 1)
		m.dsts[i] = int32(uint32(k))
		m.events += uint64(kcounts[i])
	}
}

// computeDiag tallies the diagonal event total once at construction:
// one binary search per row (dsts are ascending within a row).
func (m *Matrix) computeDiag() {
	m.diag = 0
	for r, src := range m.rowSrc {
		lo, hi := m.rowStart[r], m.rowStart[r+1]
		row := m.dsts[lo:hi]
		i := sort.Search(len(row), func(i int) bool { return row[i] >= src })
		if i < len(row) && row[i] == src {
			m.diag += uint64(m.counts[int(lo)+i])
		}
	}
}
