package obs

import (
	"math"
	"sort"
	"sync/atomic"
)

func floatBits(v float64) uint64 { return math.Float64bits(v) }
func floatFrom(b uint64) float64 { return math.Float64frombits(b) }

// Histogram is a fixed-bucket distribution metric, safe for concurrent
// use. An observation v lands in the first bucket whose upper bound
// satisfies v <= bound, or in the implicit overflow bucket. Count,
// Sum, Min, and Max are tracked exactly.
type Histogram struct {
	bounds []float64 // sorted ascending upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
	min    atomic.Uint64 // float64 bits; valid only when count > 0
	max    atomic.Uint64 // float64 bits; valid only when count > 0
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	h := &Histogram{
		bounds: bs,
		counts: make([]atomic.Uint64, len(bs)+1),
	}
	h.min.Store(floatBits(math.Inf(1)))
	h.max.Store(floatBits(math.Inf(-1)))
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, floatBits(floatFrom(old)+v)) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= floatFrom(old) || h.min.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= floatFrom(old) || h.max.CompareAndSwap(old, floatBits(v)) {
			break
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram. Counts has
// one entry per bound in Bounds plus a trailing overflow bucket.
type HistogramSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"bucket_counts,omitempty"`
}

// Snapshot copies the histogram's current state. Min and Max are 0
// when nothing has been observed.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    floatFrom(h.sum.Load()),
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
	}
	if s.Count > 0 {
		s.Min = floatFrom(h.min.Load())
		s.Max = floatFrom(h.max.Load())
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.min.Store(floatBits(math.Inf(1)))
	h.max.Store(floatBits(math.Inf(-1)))
}

// ExponentialBuckets returns n upper bounds start, start*factor,
// start*factor^2, ... (factor > 1).
func ExponentialBuckets(start, factor float64, n int) []float64 {
	bs := make([]float64, n)
	v := start
	for i := range bs {
		bs[i] = v
		v *= factor
	}
	return bs
}
