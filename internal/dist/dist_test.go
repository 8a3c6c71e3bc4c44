package dist

import (
	"math"
	"strings"
	"testing"

	"sfcacd/internal/geom"
	"sfcacd/internal/geom3"
	"sfcacd/internal/rng"
)

func TestByName(t *testing.T) {
	for _, s := range All() {
		got, err := ByName(s.Name())
		if err != nil || got.Name() != s.Name() {
			t.Errorf("ByName(%q) = %v, %v", s.Name(), got, err)
		}
	}
	for alias, want := range map[string]string{
		"gaussian": "normal", "bivariate-normal": "normal", "exp": "exponential",
	} {
		got, err := ByName(alias)
		if err != nil || got.Name() != want {
			t.Errorf("ByName(%q) = %v, %v", alias, got, err)
		}
	}
	if _, err := ByName("cauchy"); err == nil {
		t.Error("ByName(cauchy) should fail")
	}
}

func TestAllHasThree(t *testing.T) {
	if len(All()) != 3 {
		t.Fatalf("All() = %d samplers, want the paper's 3", len(All()))
	}
}

func TestSamplesInBounds(t *testing.T) {
	r := rng.New(1)
	const order = 6
	side := geom.Side(order)
	for _, s := range All() {
		for i := 0; i < 20000; i++ {
			p := s.Sample(r, order)
			if p.X >= side || p.Y >= side {
				t.Fatalf("%s: sample %v outside %dx%d", s.Name(), p, side, side)
			}
		}
	}
}

func TestUniformCoversGrid(t *testing.T) {
	r := rng.New(2)
	const order = 3 // 8x8 = 64 cells
	counts := make(map[geom.Point]int)
	const draws = 64 * 400
	for i := 0; i < draws; i++ {
		counts[Uniform.Sample(r, order)]++
	}
	if len(counts) != 64 {
		t.Fatalf("uniform hit %d/64 cells", len(counts))
	}
	want := float64(draws) / 64
	for p, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("cell %v count %d deviates from %f", p, c, want)
		}
	}
}

func TestNormalClustersAtCenter(t *testing.T) {
	r := rng.New(3)
	const order = 8 // 256x256
	side := float64(geom.Side(order))
	pts := SampleN(Normal, r, order, 50000)
	m := ComputeMoments(pts)
	if math.Abs(m.MeanX-side/2) > 3 || math.Abs(m.MeanY-side/2) > 3 {
		t.Errorf("normal mean (%f,%f), want ~%f", m.MeanX, m.MeanY, side/2)
	}
	// sigma = side/8 = 32.
	if math.Abs(m.StdX-side/8) > 2 || math.Abs(m.StdY-side/8) > 2 {
		t.Errorf("normal std (%f,%f), want ~%f", m.StdX, m.StdY, side/8)
	}
}

func TestExponentialSkewsToCorner(t *testing.T) {
	r := rng.New(4)
	const order = 8
	side := geom.Side(order)
	pts := SampleN(Exponential, r, order, 50000)
	// The paper: "clusters the selected values in a single quadrant".
	inCorner := 0
	for _, p := range pts {
		if p.X < side/2 && p.Y < side/2 {
			inCorner++
		}
	}
	if frac := float64(inCorner) / float64(len(pts)); frac < 0.9 {
		t.Errorf("only %.2f of exponential mass in the corner quadrant", frac)
	}
	m := ComputeMoments(pts)
	// Mean of exp(scale=32) clipped at 256 is close to 32.
	if m.MeanX > 40 || m.MeanY > 40 {
		t.Errorf("exponential means (%f,%f) too large", m.MeanX, m.MeanY)
	}
}

func TestSampleNLength(t *testing.T) {
	r := rng.New(5)
	if got := len(SampleN(Uniform, r, 4, 123)); got != 123 {
		t.Fatalf("SampleN length %d", got)
	}
}

func TestSampleUniqueDistinct(t *testing.T) {
	r := rng.New(6)
	const order = 5 // 1024 cells
	for _, s := range All() {
		pts, err := SampleUnique(s, r, order, 300)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		seen := make(map[geom.Point]bool)
		for _, p := range pts {
			if seen[p] {
				t.Fatalf("%s: duplicate cell %v", s.Name(), p)
			}
			seen[p] = true
		}
	}
}

func TestSampleUniqueFull(t *testing.T) {
	// Requesting every cell must still terminate for uniform.
	r := rng.New(7)
	const order = 3
	pts, err := SampleUnique(Uniform, r, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 64 {
		t.Fatalf("got %d points", len(pts))
	}
}

func TestSampleUniqueTooMany(t *testing.T) {
	r := rng.New(8)
	if _, err := SampleUnique(Uniform, r, 2, 17); err == nil {
		t.Fatal("expected error when n exceeds cell count")
	}
}

func TestSampleUniqueDeterministic(t *testing.T) {
	a, _ := SampleUnique(Normal, rng.New(99), 6, 500)
	b, _ := SampleUnique(Normal, rng.New(99), 6, 500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// stuckSampler always returns the same cell, forcing unique-sampling
// rejection to stall.
type stuckSampler struct{}

func (stuckSampler) Name() string { return "stuck" }
func (stuckSampler) Sample(r *rng.Rand, order uint) geom.Point {
	r.Uint64() // consume entropy like a real sampler
	return geom.Pt(0, 0)
}

func TestSampleUniqueStallsGracefully(t *testing.T) {
	// Requesting two unique cells from a degenerate sampler must fail
	// with a stall error rather than spin forever.
	_, err := SampleUnique(stuckSampler{}, rng.New(1), 4, 2)
	if err == nil {
		t.Fatal("stalled sampler did not error")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("unexpected error %v", err)
	}
}

type stuckSampler3 struct{}

func (stuckSampler3) Name() string { return "stuck3" }
func (stuckSampler3) Sample3(r *rng.Rand, order uint) geom3.Point3 {
	r.Uint64()
	return geom3.Pt3(0, 0, 0)
}

func TestSampleUnique3StallsGracefully(t *testing.T) {
	_, err := SampleUnique3(stuckSampler3{}, rng.New(1), 3, 2)
	if err == nil {
		t.Fatal("stalled 3D sampler did not error")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("unexpected error %v", err)
	}
}

func TestComputeMomentsEmpty(t *testing.T) {
	m := ComputeMoments(nil)
	if m.MeanX != 0 || m.StdY != 0 {
		t.Errorf("empty moments = %+v", m)
	}
}

func TestComputeMomentsKnown(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 4)}
	m := ComputeMoments(pts)
	if m.MeanX != 1 || m.MeanY != 2 || m.StdX != 1 || m.StdY != 2 {
		t.Errorf("moments = %+v", m)
	}
}

func TestBitmap(t *testing.T) {
	b := newBitmap(130)
	for _, i := range []uint64{0, 1, 63, 64, 129} {
		if b.testAndSet(i) {
			t.Fatalf("bit %d set before setting", i)
		}
		if !b.testAndSet(i) {
			t.Fatalf("bit %d not set after setting", i)
		}
	}
}

// SampleN draws n cells (duplicates allowed).
func SampleN(s Sampler, r *rng.Rand, order uint, n int) []geom.Point {
	out := make([]geom.Point, n)
	for i := range out {
		out[i] = s.Sample(r, order)
	}
	return out
}

// Moments summarizes a sample cloud; the sampler tests check the
// distributions' shapes through it.
type Moments struct {
	MeanX, MeanY float64
	StdX, StdY   float64
}

// ComputeMoments returns per-axis mean and standard deviation.
func ComputeMoments(pts []geom.Point) Moments {
	if len(pts) == 0 {
		return Moments{}
	}
	var sx, sy, sxx, syy float64
	for _, p := range pts {
		sx += float64(p.X)
		sy += float64(p.Y)
		sxx += float64(p.X) * float64(p.X)
		syy += float64(p.Y) * float64(p.Y)
	}
	n := float64(len(pts))
	m := Moments{MeanX: sx / n, MeanY: sy / n}
	m.StdX = math.Sqrt(sxx/n - m.MeanX*m.MeanX)
	m.StdY = math.Sqrt(syy/n - m.MeanY*m.MeanY)
	return m
}

// TestOccupanciesAcceptSameDraws runs the dense bitmap and the sparse
// set on one seeded stream per case: both must accept exactly the same
// draws, so the occupancy SampleUnique picks never changes a sample.
func TestOccupanciesAcceptSameDraws(t *testing.T) {
	cases := []struct {
		order uint
		n     int
	}{
		{4, 100},    // a third of the grid: many draws are rejections
		{6, 1000},   // dense, as table12 and serve sample
		{12, 15625}, // sparse, as sparse12 samples
	}
	for _, s := range All() {
		for _, c := range cases {
			bits, err := sampleUnique(s, rng.New(41), c.order, c.n, newBitmap(geom.Cells(c.order)))
			if err != nil {
				t.Fatalf("%s order %d: bitmap: %v", s.Name(), c.order, err)
			}
			set, err := sampleUnique(s, rng.New(41), c.order, c.n, make(cellSet))
			if err != nil {
				t.Fatalf("%s order %d: set: %v", s.Name(), c.order, err)
			}
			if len(bits) != c.n || len(set) != c.n {
				t.Fatalf("%s order %d: %d and %d particles, want %d", s.Name(), c.order, len(bits), len(set), c.n)
			}
			for i := range bits {
				if bits[i] != set[i] {
					t.Fatalf("%s order %d: particle %d is %v with a bitmap, %v with a set", s.Name(), c.order, i, bits[i], set[i])
				}
			}
		}
	}
}

// TestOccupancySizedByParticles: a grid large next to the particle
// count gets a set, not a grid-sized bitmap, and a small one a bitmap.
func TestOccupancySizedByParticles(t *testing.T) {
	if _, ok := newOccupancy(geom.Cells(15), 100).(cellSet); !ok {
		t.Error("100 particles on a 2^30-cell grid: occupancy is not a set")
	}
	if _, ok := newOccupancy(geom.Cells(12), 15625).(cellSet); !ok {
		t.Error("15,625 particles on a 2^24-cell grid: occupancy is not a set")
	}
	if _, ok := newOccupancy(geom.Cells(8), 15625).(bitmap); !ok {
		t.Error("15,625 particles on a 2^16-cell grid: occupancy is not a bitmap")
	}
	if _, ok := newOccupancy(geom.Cells(7), 3906).(bitmap); !ok {
		t.Error("3,906 particles on a 2^14-cell grid: occupancy is not a bitmap")
	}
}
