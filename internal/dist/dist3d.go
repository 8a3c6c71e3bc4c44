package dist

import (
	"fmt"

	"sfcacd/internal/geom3"
	"sfcacd/internal/rng"
)

// Sampler3 draws a single random cell on the 3D grid of the given
// order — the 3D counterparts of the paper's three distributions.
type Sampler3 interface {
	// Name returns the distribution's canonical name.
	Name() string
	// Sample3 draws one cell of the 2^order cube.
	Sample3(r *rng.Rand, order uint) geom3.Point3
}

// 3D sampler singletons, parameterized like their 2D counterparts.
var (
	// Uniform3 selects every cell with equal probability.
	Uniform3 Sampler3 = uniform3{}
	// Normal3 is a trivariate normal centered on the cube with
	// sigma = side/8.
	Normal3 Sampler3 = normal3{sigmaDiv: 8}
	// Exponential3 clusters particles in the corner octant with scale
	// side/8.
	Exponential3 Sampler3 = exponential3{scaleDiv: 8}
)

// All3 returns the three 3D samplers in the paper's order.
func All3() []Sampler3 { return []Sampler3{Uniform3, Normal3, Exponential3} }

type uniform3 struct{}

func (uniform3) Name() string { return "uniform" }

func (uniform3) Sample3(r *rng.Rand, order uint) geom3.Point3 {
	side := geom3.Side(order)
	return geom3.Pt3(r.Uint32n(side), r.Uint32n(side), r.Uint32n(side))
}

type normal3 struct {
	sigmaDiv float64
}

func (normal3) Name() string { return "normal" }

func (n normal3) Sample3(r *rng.Rand, order uint) geom3.Point3 {
	side := geom3.Side(order)
	mu := float64(side) / 2
	sigma := float64(side) / n.sigmaDiv
	for {
		x := mu + sigma*r.NormFloat64()
		y := mu + sigma*r.NormFloat64()
		z := mu + sigma*r.NormFloat64()
		if x >= 0 && y >= 0 && z >= 0 && x < float64(side) && y < float64(side) && z < float64(side) {
			return geom3.Pt3(uint32(x), uint32(y), uint32(z))
		}
	}
}

type exponential3 struct {
	scaleDiv float64
}

func (exponential3) Name() string { return "exponential" }

func (e exponential3) Sample3(r *rng.Rand, order uint) geom3.Point3 {
	side := geom3.Side(order)
	scale := float64(side) / e.scaleDiv
	for {
		x := scale * r.ExpFloat64()
		y := scale * r.ExpFloat64()
		z := scale * r.ExpFloat64()
		if x < float64(side) && y < float64(side) && z < float64(side) {
			return geom3.Pt3(uint32(x), uint32(y), uint32(z))
		}
	}
}

// SampleUnique3 draws n distinct 3D cells by rejection.
func SampleUnique3(s Sampler3, r *rng.Rand, order uint, n int) ([]geom3.Point3, error) {
	cells := geom3.Cells(order)
	if uint64(n) > cells {
		return nil, fmt.Errorf("dist: cannot place %d unique particles in %d cells", n, cells)
	}
	side := geom3.Side(order)
	occupied := newOccupancy(cells, n)
	out := make([]geom3.Point3, 0, n)
	maxAttempts := 200*uint64(n) + 100000
	var attempts uint64
	for len(out) < n {
		if attempts++; attempts > maxAttempts {
			return nil, fmt.Errorf("dist: 3D %s sampler stalled placing %d/%d particles",
				s.Name(), len(out), n)
		}
		p := s.Sample3(r, order)
		if occupied.testAndSet(geom3.CellID(p, side)) {
			continue
		}
		out = append(out, p)
	}
	return out, nil
}
