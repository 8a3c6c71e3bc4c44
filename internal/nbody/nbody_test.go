package nbody

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"sfcacd/internal/panics"
	"sfcacd/internal/rng"
)

// randomSystem builds a reproducible random system with zero-mean unit
// charges.
func randomSystem(seed uint64, n int) System {
	r := rng.New(seed)
	s := System{Pos: make([]complex128, n), Q: make([]float64, n)}
	for i := 0; i < n; i++ {
		s.Pos[i] = complex(r.Float64(), r.Float64())
		if i%2 == 0 {
			s.Q[i] = 1
		} else {
			s.Q[i] = -1
		}
	}
	return s
}

func TestValidate(t *testing.T) {
	if err := (System{Pos: []complex128{0.5 + 0.5i}, Q: []float64{1}}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (System{Pos: []complex128{0.5}, Q: nil}).Validate(); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := (System{Pos: []complex128{1.5 + 0.5i}, Q: []float64{1}}).Validate(); err == nil {
		t.Error("out-of-domain position accepted")
	}
}

func TestDirectTwoParticles(t *testing.T) {
	// Two unit charges at distance d: each sees potential log(d), and
	// the gradient points away from the other charge with magnitude
	// 1/d.
	s := System{
		Pos: []complex128{0.25 + 0.5i, 0.75 + 0.5i},
		Q:   []float64{1, 1},
	}
	res, err := SolveDirect(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Log(0.5)
	for i, p := range res.Potential {
		if math.Abs(p-want) > 1e-14 {
			t.Errorf("potential[%d] = %f, want %f", i, p, want)
		}
	}
	// Particle 0 at x=0.25: d/dx log|x - 0.75| = 1/(0.25-0.75) = -2.
	if g := res.Gradient[0]; math.Abs(real(g)+2) > 1e-12 || math.Abs(imag(g)) > 1e-12 {
		t.Errorf("gradient[0] = %v, want -2+0i", g)
	}
	if g := res.Gradient[1]; math.Abs(real(g)-2) > 1e-12 || math.Abs(imag(g)) > 1e-12 {
		t.Errorf("gradient[1] = %v, want 2+0i", g)
	}
}

func TestDirectGradientMatchesFiniteDifference(t *testing.T) {
	s := randomSystem(3, 40)
	res, err := SolveDirect(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Check the gradient of the potential field at particle 0 by
	// moving it slightly and recomputing.
	const h = 1e-6
	probe := func(dz complex128) float64 {
		s2 := System{Pos: append([]complex128(nil), s.Pos...), Q: s.Q}
		s2.Pos[0] += dz
		r2, err := SolveDirect(s2, 1)
		if err != nil {
			t.Fatal(err)
		}
		return r2.Potential[0]
	}
	gx := (probe(complex(h, 0)) - probe(complex(-h, 0))) / (2 * h)
	gy := (probe(complex(0, h)) - probe(complex(0, -h))) / (2 * h)
	if math.Abs(gx-real(res.Gradient[0])) > 1e-4*(1+math.Abs(gx)) {
		t.Errorf("gx = %f, analytic %f", gx, real(res.Gradient[0]))
	}
	if math.Abs(gy-imag(res.Gradient[0])) > 1e-4*(1+math.Abs(gy)) {
		t.Errorf("gy = %f, analytic %f", gy, imag(res.Gradient[0]))
	}
}

func TestDirectDeterministicAcrossWorkers(t *testing.T) {
	s := randomSystem(5, 300)
	a, err := SolveDirect(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveDirect(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Potential {
		if a.Potential[i] != b.Potential[i] || a.Gradient[i] != b.Gradient[i] {
			t.Fatalf("worker count changed result at %d", i)
		}
	}
}

// TestParallelRowsWorkerPanic checks that a stripe panicking on a
// worker goroutine re-panics on the caller as a *panics.Worker carrying
// the stripe's value, with one worker and with several.
func TestParallelRowsWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var v any
		func() {
			defer func() { v = recover() }()
			parallelRows(8, workers, func(lo, hi int) {
				if lo <= 5 && 5 < hi {
					panic(fmt.Sprintf("row %d boom", lo))
				}
			})
		}()
		want := "row 0 boom"
		if workers == 4 {
			want = "row 4 boom"
		}
		w, ok := v.(*panics.Worker)
		if !ok || w.Value != want {
			t.Errorf("workers %d: recovered %#v, want a *panics.Worker of %q", workers, v, want)
		}
	}
}

func TestFMMMatchesDirect(t *testing.T) {
	s := randomSystem(7, 3000)
	direct, err := SolveDirect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmm, err := SolveFMM(s, FMMOptions{Terms: 24})
	if err != nil {
		t.Fatal(err)
	}
	if e := RelativeError(fmm, direct); e > 1e-7 {
		t.Fatalf("potential relative error %g", e)
	}
	// Gradients too.
	var maxDiff, maxMag float64
	for i := range direct.Gradient {
		d := cmplx.Abs(fmm.Gradient[i] - direct.Gradient[i])
		if d > maxDiff {
			maxDiff = d
		}
		if m := cmplx.Abs(direct.Gradient[i]); m > maxMag {
			maxMag = m
		}
	}
	if maxDiff/maxMag > 1e-6 {
		t.Fatalf("gradient relative error %g", maxDiff/maxMag)
	}
}

func TestFMMAccuracyImprovesWithTerms(t *testing.T) {
	s := randomSystem(11, 1500)
	direct, err := SolveDirect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var prev float64 = math.Inf(1)
	for _, terms := range []int{4, 10, 18} {
		fmm, err := SolveFMM(s, FMMOptions{Terms: terms})
		if err != nil {
			t.Fatal(err)
		}
		e := RelativeError(fmm, direct)
		if e >= prev {
			t.Fatalf("terms=%d error %g did not improve on %g", terms, e, prev)
		}
		prev = e
	}
	if prev > 1e-5 {
		t.Fatalf("terms=18 error %g too large", prev)
	}
}

func TestFMMClusteredInput(t *testing.T) {
	// A tight cluster plus distant stragglers stresses deep leaves and
	// near-empty interaction lists.
	r := rng.New(13)
	var s System
	for i := 0; i < 800; i++ {
		s.Pos = append(s.Pos, complex(0.1+0.02*r.Float64(), 0.1+0.02*r.Float64()))
		s.Q = append(s.Q, r.Float64()*2-1)
	}
	for i := 0; i < 50; i++ {
		s.Pos = append(s.Pos, complex(r.Float64(), r.Float64()))
		s.Q = append(s.Q, 1)
	}
	direct, err := SolveDirect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmm, err := SolveFMM(s, FMMOptions{Terms: 24})
	if err != nil {
		t.Fatal(err)
	}
	if e := RelativeError(fmm, direct); e > 1e-6 {
		t.Fatalf("clustered relative error %g", e)
	}
}

func TestFMMDeterministicAcrossWorkers(t *testing.T) {
	s := randomSystem(17, 1000)
	a, err := SolveFMM(s, FMMOptions{Terms: 12, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveFMM(s, FMMOptions{Terms: 12, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Potential {
		if a.Potential[i] != b.Potential[i] {
			t.Fatalf("worker count changed FMM result at %d", i)
		}
	}
}

func TestFMMSmallSystem(t *testing.T) {
	// Fewer particles than a single leaf: everything is near-field.
	s := randomSystem(19, 5)
	direct, err := SolveDirect(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	fmm, err := SolveFMM(s, FMMOptions{Terms: 30})
	if err != nil {
		t.Fatal(err)
	}
	if e := RelativeError(fmm, direct); e > 1e-10 {
		t.Fatalf("small system error %g", e)
	}
}

func TestFMMRejectsBadSystem(t *testing.T) {
	if _, err := SolveFMM(System{Pos: []complex128{2 + 2i}, Q: []float64{1}}, FMMOptions{}); err == nil {
		t.Error("bad system accepted")
	}
	if _, err := SolveDirect(System{Pos: []complex128{2 + 2i}, Q: []float64{1}}, 0); err == nil {
		t.Error("bad system accepted by direct")
	}
}

func TestTotalEnergySymmetry(t *testing.T) {
	// Energy computed from potentials must equal the explicit pair sum.
	s := randomSystem(23, 120)
	res, err := SolveDirect(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for i := 0; i < len(s.Pos); i++ {
		for j := i + 1; j < len(s.Pos); j++ {
			want += s.Q[i] * s.Q[j] * realLog(s.Pos[i]-s.Pos[j])
		}
	}
	if got := TotalEnergy(s, res); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("energy %f, pair sum %f", got, want)
	}
}

func TestNeutralClusterFarFieldDecays(t *testing.T) {
	// A +1/-1 dipole's far potential decays like 1/r: a probe far away
	// must see a small potential, and FMM must capture it.
	s := System{
		Pos: []complex128{0.100 + 0.1i, 0.101 + 0.1i, 0.9 + 0.9i},
		Q:   []float64{1, -1, 0},
	}
	res, err := SolveFMM(s, FMMOptions{Terms: 30})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := SolveDirect(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Potential[2]-direct.Potential[2]) > 1e-10 {
		t.Fatalf("probe potential %g vs direct %g", res.Potential[2], direct.Potential[2])
	}
	if math.Abs(direct.Potential[2]) > 0.01 {
		t.Fatalf("dipole far potential %g unexpectedly large", direct.Potential[2])
	}
}

func TestCoincidentParticlesSkipped(t *testing.T) {
	s := System{
		Pos: []complex128{0.5 + 0.5i, 0.5 + 0.5i, 0.25 + 0.25i},
		Q:   []float64{1, 1, 1},
	}
	res, err := SolveDirect(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range res.Potential {
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("potential[%d] = %f with coincident particles", i, p)
		}
	}
	fmm, err := SolveFMM(s, FMMOptions{Terms: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range fmm.Potential {
		if math.IsInf(p, 0) || math.IsNaN(p) {
			t.Fatalf("fmm potential[%d] = %f with coincident particles", i, p)
		}
	}
}

func TestRelativeErrorZeroBaseline(t *testing.T) {
	a := Result{Potential: []float64{0.5}}
	b := Result{Potential: []float64{0}}
	if got := RelativeError(a, b); got != 0.5 {
		t.Fatalf("RelativeError = %f", got)
	}
}

// RelativeError returns max_i |a.Potential[i] - b.Potential[i]| scaled
// by the max magnitude of b's potentials — the accuracy figure the
// solver tests check.
func RelativeError(a, b Result) float64 {
	var maxDiff, maxMag float64
	for i := range a.Potential {
		d := math.Abs(a.Potential[i] - b.Potential[i])
		if d > maxDiff {
			maxDiff = d
		}
		if m := math.Abs(b.Potential[i]); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		return maxDiff
	}
	return maxDiff / maxMag
}
