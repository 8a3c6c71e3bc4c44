// Package dist provides the three input particle distributions used in
// the paper's experiments (§II-C): uniform, bivariate normal (centrally
// clustered, Figure 2(b)), and exponential (skewed into one quadrant,
// Figure 2(c)). Samplers draw integer cells on a 2^k x 2^k spatial
// resolution from a deterministic rng.Rand stream.
package dist

import (
	"fmt"

	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
)

// Sampler draws a single random cell on the grid of the given order.
type Sampler interface {
	// Name returns the distribution's canonical lower-case name.
	Name() string
	// Sample draws one cell on the 2^order x 2^order grid.
	Sample(r *rng.Rand, order uint) geom.Point
}

// Canonical sampler singletons with the parameterizations used by the
// experiments.
var (
	// Uniform selects every cell with equal probability.
	Uniform Sampler = uniform{}
	// Normal is a symmetric bivariate normal centered on the grid with
	// sigma = side/8, clipped to the grid by rejection. Particles
	// cluster around the center — the location of the largest
	// discontinuities of the recursive SFCs.
	Normal Sampler = normal{sigmaDiv: 8}
	// Exponential draws both coordinates from an exponential with scale
	// side/8, clipped by rejection, clustering particles in the corner
	// quadrant.
	Exponential Sampler = exponential{scaleDiv: 8}
)

// All returns the three paper distributions in the paper's order.
func All() []Sampler { return []Sampler{Uniform, Normal, Exponential} }

// ByName resolves a sampler by name.
func ByName(name string) (Sampler, error) {
	switch name {
	case "uniform":
		return Uniform, nil
	case "normal", "gaussian", "bivariate-normal":
		return Normal, nil
	case "exponential", "exp":
		return Exponential, nil
	}
	return nil, fmt.Errorf("dist: unknown distribution %q", name)
}

type uniform struct{}

func (uniform) Name() string { return "uniform" }

func (uniform) Sample(r *rng.Rand, order uint) geom.Point {
	side := geom.Side(order)
	return geom.Pt(r.Uint32n(side), r.Uint32n(side))
}

type normal struct {
	sigmaDiv float64
}

func (normal) Name() string { return "normal" }

func (n normal) Sample(r *rng.Rand, order uint) geom.Point {
	side := geom.Side(order)
	mu := float64(side) / 2
	sigma := float64(side) / n.sigmaDiv
	for {
		x := mu + sigma*r.NormFloat64()
		y := mu + sigma*r.NormFloat64()
		if x >= 0 && y >= 0 && x < float64(side) && y < float64(side) {
			return geom.Pt(uint32(x), uint32(y))
		}
	}
}

type exponential struct {
	scaleDiv float64
}

func (exponential) Name() string { return "exponential" }

func (e exponential) Sample(r *rng.Rand, order uint) geom.Point {
	side := geom.Side(order)
	scale := float64(side) / e.scaleDiv
	for {
		x := scale * r.ExpFloat64()
		y := scale * r.ExpFloat64()
		if x < float64(side) && y < float64(side) {
			return geom.Pt(uint32(x), uint32(y))
		}
	}
}

// SampleUnique draws n distinct cells by rejection, honouring the
// paper's assumption that a cell at the finest resolution contains at
// most one particle. It fails if n exceeds the number of cells or if
// the distribution is so concentrated that rejection stalls.
func SampleUnique(s Sampler, r *rng.Rand, order uint, n int) ([]geom.Point, error) {
	cells := geom.Cells(order)
	if uint64(n) > cells {
		return nil, fmt.Errorf("dist: cannot place %d unique particles in %d cells", n, cells)
	}
	return sampleUnique(s, r, order, n, newOccupancy(cells, n))
}

// sampleUnique is SampleUnique marking the cells it places particles
// in on occupied; every occupancy accepts the same draws.
func sampleUnique(s Sampler, r *rng.Rand, order uint, n int, occupied occupancy) ([]geom.Point, error) {
	side := geom.Side(order)
	out := make([]geom.Point, 0, n)
	// Generous stall guard: the worst-case experiment (normal at ~25%
	// overall fill with a saturated center) needs only a few rejections
	// per particle.
	maxAttempts := 200*uint64(n) + 100000
	var attempts uint64
	for len(out) < n {
		if attempts++; attempts > maxAttempts {
			return nil, fmt.Errorf("dist: %s sampler stalled after %d attempts placing %d/%d particles",
				s.Name(), attempts, len(out), n)
		}
		p := s.Sample(r, order)
		id := geom.CellID(p, side)
		if occupied.testAndSet(id) {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}

// occupancy is the set of cells a sampler has placed a particle in.
type occupancy interface {
	// testAndSet adds cell id and reports whether it was already in.
	testAndSet(id uint64) bool
}

// denseCellsPerParticle is the most grid cells per particle for which a
// sampler keeps its occupancy in a dense bitmap. Up to it the bitmap
// costs at most 32 bytes per particle, about what a set entry costs;
// beyond it a set sized by the particle count is smaller.
const denseCellsPerParticle = 256

// newOccupancy returns the occupancy of n particles on a grid of the
// given cell count: a dense bitmap where the grid is small next to the
// particle count, a set sized by the particle count where it is not.
func newOccupancy(cells uint64, n int) occupancy {
	if cells <= denseCellsPerParticle*uint64(n) {
		return newBitmap(cells)
	}
	return make(cellSet, n)
}

// cellSet is a sparse occupancy: the set of occupied cell ids.
type cellSet map[uint64]struct{}

func (s cellSet) testAndSet(id uint64) bool {
	if _, ok := s[id]; ok {
		return true
	}
	s[id] = struct{}{}
	return false
}

// bitmap is a dense bit set over cell ids.
type bitmap []uint64

func newBitmap(bits uint64) bitmap {
	return make(bitmap, (bits+63)/64)
}

// testAndSet sets bit i and reports whether it was already set.
func (b bitmap) testAndSet(i uint64) bool {
	w, mask := i/64, uint64(1)<<(i%64)
	old := b[w]&mask != 0
	b[w] |= mask
	return old
}
