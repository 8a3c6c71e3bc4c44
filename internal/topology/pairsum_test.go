package topology

import (
	"fmt"
	"testing"

	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// randomBatch draws a weighted destination batch over p ranks,
// deliberately including src itself (zero-distance pairs exercise the
// diagonal handling of every implementation).
func randomBatch(r *rng.Rand, p, n, src int) ([]int32, []uint32) {
	dsts := make([]int32, n)
	ns := make([]uint32, n)
	for i := range dsts {
		dsts[i] = int32(r.Intn(p))
		ns[i] = 1 + r.Uint32n(9)
	}
	if n > 0 {
		dsts[r.Intn(n)] = int32(src)
	}
	return dsts, ns
}

// pairSumOracle is the definitional per-pair loop DistanceSum must
// reproduce exactly.
func pairSumOracle(topo Topology, src int, dsts []int32, ns []uint32) uint64 {
	var s uint64
	for i, d := range dsts {
		s += uint64(topo.Distance(src, int(d))) * uint64(ns[i])
	}
	return s
}

// TestDistanceSumMatchesDistance is the differential test for every
// PairContractor: the batched sum must equal the per-pair Distance
// loop bit-for-bit, for every topology kind, across random sources and
// batch sizes (including empty and single-pair batches).
func TestDistanceSumMatchesDistance(t *testing.T) {
	const p = 64
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range Kinds {
		topo, err := New(kind, p, curve)
		if err != nil {
			t.Fatal(err)
		}
		pc, ok := topo.(PairContractor)
		if !ok {
			t.Fatalf("%s does not implement PairContractor", kind)
		}
		r := rng.New(41)
		for _, n := range []int{0, 1, 7, 200} {
			for trial := 0; trial < 8; trial++ {
				src := r.Intn(p)
				dsts, ns := randomBatch(r, p, n, src)
				got := pc.DistanceSum(src, dsts, ns)
				want := pairSumOracle(topo, src, dsts, ns)
				if got != want {
					t.Fatalf("%s: DistanceSum(src=%d, %d pairs) = %d, want %d",
						kind, src, n, got, want)
				}
			}
		}
	}
}

// TestTorusDistanceSumBothBranches covers the delta-table branch
// (side <= torusLUTMaxSide) and the arithmetic fallback (larger sides
// build no table) against the per-pair oracle.
func TestTorusDistanceSumBothBranches(t *testing.T) {
	curve, err := sfc.ByName("morton")
	if err != nil {
		t.Fatal(err)
	}
	for _, procOrder := range []int{3, 9} { // sides 8 and 512
		torus := NewTorus(uint(procOrder), curve)
		hasLUT := torus.dlut != nil
		if wantLUT := torus.side <= torusLUTMaxSide; hasLUT != wantLUT {
			t.Fatalf("side %d: dlut presence = %v, want %v", torus.side, hasLUT, wantLUT)
		}
		p := torus.P()
		r := rng.New(uint64(procOrder))
		for trial := 0; trial < 6; trial++ {
			src := r.Intn(p)
			dsts, ns := randomBatch(r, p, 300, src)
			got := torus.DistanceSum(src, dsts, ns)
			want := pairSumOracle(torus, src, dsts, ns)
			if got != want {
				t.Fatalf("side %d: DistanceSum = %d, want %d", torus.side, got, want)
			}
		}
	}
}

// TestTorusDistanceSumRows checks the row-block form against per-row
// DistanceSum over randomly cut CSR row blocks — including empty rows
// and odd row lengths, which exercise the unrolled loop's tail — on
// both the delta-table and arithmetic branches.
func TestTorusDistanceSumRows(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	for _, procOrder := range []int{3, 9} {
		torus := NewTorus(uint(procOrder), curve)
		p := torus.P()
		r := rng.New(uint64(100 + procOrder))
		t.Run(fmt.Sprintf("side%d", torus.side), func(t *testing.T) {
			srcs := make([]int32, 0, 40)
			rowStart := []int32{0}
			var dsts []int32
			var ns []uint32
			for len(srcs) < 40 {
				src := int32(r.Intn(p))
				rowLen := r.Intn(10) // 0..9: empty, odd, and even rows
				rd, rn := randomBatch(r, p, rowLen, int(src))
				srcs = append(srcs, src)
				dsts = append(dsts, rd...)
				ns = append(ns, rn...)
				rowStart = append(rowStart, int32(len(dsts)))
			}
			got := torus.DistanceSumRows(srcs, rowStart, dsts, ns)
			var want uint64
			for i, src := range srcs {
				lo, hi := rowStart[i], rowStart[i+1]
				want += torus.DistanceSum(int(src), dsts[lo:hi], ns[lo:hi])
			}
			if got != want {
				t.Fatalf("DistanceSumRows = %d, per-row sum = %d", got, want)
			}
		})
	}
}

// TestDistanceSumPairsMatchesDistance is the differential test for
// DistanceSumPairs: the batched sum over arbitrary (src, dst) pairs
// must equal the per-pair Distance loop bit-for-bit, for every
// topology kind and for a torus above torusLUTMaxSide (no delta
// table), on empty and non-empty batches with equal-rank entries and
// counts above 1.
func TestDistanceSumPairsMatchesDistance(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	var topos []Topology
	for _, kind := range Kinds {
		topo, err := New(kind, 64, curve)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	big := NewTorus(9, curve)
	if big.dlut != nil {
		t.Fatal("a side-512 torus built a delta table")
	}
	topos = append(topos, big)
	for i, topo := range topos {
		ps, ok := topo.(interface {
			DistanceSumPairs(src, dst []int32, ns []uint32) uint64
		})
		if !ok {
			t.Fatalf("%s has no DistanceSumPairs", topo.Name())
		}
		p := topo.P()
		r := rng.New(uint64(60 + i))
		for _, n := range []int{0, 1, 7, 513} {
			src := make([]int32, n)
			dst := make([]int32, n)
			ns := make([]uint32, n)
			for j := range src {
				src[j], dst[j] = int32(r.Intn(p)), int32(r.Intn(p))
				if j%5 == 0 {
					dst[j] = src[j]
				}
				ns[j] = 1 + r.Uint32n(9)
			}
			var want uint64
			for j := range src {
				want += uint64(topo.Distance(int(src[j]), int(dst[j]))) * uint64(ns[j])
			}
			if got := ps.DistanceSumPairs(src, dst, ns); got != want {
				t.Errorf("%s of %d: DistanceSumPairs over %d pairs = %d, want %d", topo.Name(), p, n, got, want)
			}
		}
	}
}
