package obs

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	// An observation v lands in the first bucket with v <= bound; the
	// trailing bucket catches overflow.
	cases := []struct {
		name       string
		bounds     []float64
		values     []float64
		wantCounts []uint64
		wantMin    float64
		wantMax    float64
		wantSum    float64
	}{
		{
			name:       "empty",
			bounds:     []float64{1, 10},
			wantCounts: []uint64{0, 0, 0},
		},
		{
			name:       "boundary values are inclusive",
			bounds:     []float64{1, 10, 100},
			values:     []float64{1, 10, 100},
			wantCounts: []uint64{1, 1, 1, 0},
			wantMin:    1, wantMax: 100, wantSum: 111,
		},
		{
			name:       "overflow bucket",
			bounds:     []float64{1, 10},
			values:     []float64{5000, 11},
			wantCounts: []uint64{0, 0, 2},
			wantMin:    11, wantMax: 5000, wantSum: 5011,
		},
		{
			name:       "below first bound",
			bounds:     []float64{10, 20},
			values:     []float64{0, -5, 9.99},
			wantCounts: []uint64{3, 0, 0},
			wantMin:    -5, wantMax: 9.99, wantSum: 4.99,
		},
		{
			name:       "unsorted bounds are sorted at construction",
			bounds:     []float64{100, 1, 10},
			values:     []float64{2, 20, 200},
			wantCounts: []uint64{0, 1, 1, 1},
			wantMin:    2, wantMax: 200, wantSum: 222,
		},
		{
			name:       "mid buckets",
			bounds:     []float64{1, 2, 4, 8},
			values:     []float64{1.5, 3, 3.5, 7, 9},
			wantCounts: []uint64{0, 1, 2, 1, 1},
			wantMin:    1.5, wantMax: 9, wantSum: 24,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := newHistogram(tc.bounds)
			for _, v := range tc.values {
				h.Observe(v)
			}
			s := h.Snapshot()
			if len(s.Counts) != len(tc.wantCounts) {
				t.Fatalf("got %d buckets, want %d", len(s.Counts), len(tc.wantCounts))
			}
			for i := range s.Counts {
				if s.Counts[i] != tc.wantCounts[i] {
					t.Fatalf("bucket %d = %d, want %d (all: %v)", i, s.Counts[i], tc.wantCounts[i], s.Counts)
				}
			}
			if s.Count != uint64(len(tc.values)) {
				t.Fatalf("count = %d, want %d", s.Count, len(tc.values))
			}
			if math.Abs(s.Sum-tc.wantSum) > 1e-9 {
				t.Fatalf("sum = %v, want %v", s.Sum, tc.wantSum)
			}
			if s.Min != tc.wantMin || s.Max != tc.wantMax {
				t.Fatalf("min/max = %v/%v, want %v/%v", s.Min, s.Max, tc.wantMin, tc.wantMax)
			}
		})
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := newHistogram([]float64{10, 100, 1000})
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(i % 2000))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count = %d, want %d", s.Count, goroutines*perG)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Min != 0 || s.Max != 1999 {
		t.Fatalf("min/max = %v/%v, want 0/1999", s.Min, s.Max)
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExponentialBuckets(1, 4, 5)
	wantExp := []float64{1, 4, 16, 64, 256}
	for i := range wantExp {
		if exp[i] != wantExp[i] {
			t.Fatalf("ExponentialBuckets = %v, want %v", exp, wantExp)
		}
	}
}
