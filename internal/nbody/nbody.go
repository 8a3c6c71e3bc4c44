// Package nbody implements the application whose communication the
// paper models: a 2D Fast Multipole Method (Greengard & Rokhlin 1987)
// for the Laplace kernel, alongside the O(n^2) direct-summation
// baseline. The complex-potential formulation is used: a unit charge
// at z0 contributes log(z - z0) to the analytic potential Phi; the
// physical potential is Re(Phi) and the gradient of the potential is
// conj(Phi').
package nbody

import (
	"fmt"
	"math/cmplx"
	"runtime"
)

// System is a set of charged particles in the unit square.
type System struct {
	// Pos holds particle positions as complex x+iy, each in [0,1)^2.
	Pos []complex128
	// Q holds the particle charges, parallel to Pos.
	Q []float64
}

// Validate checks the system's shape and domain.
func (s System) Validate() error {
	if len(s.Pos) != len(s.Q) {
		return fmt.Errorf("nbody: %d positions for %d charges", len(s.Pos), len(s.Q))
	}
	for i, z := range s.Pos {
		x, y := real(z), imag(z)
		if x < 0 || x >= 1 || y < 0 || y >= 1 {
			return fmt.Errorf("nbody: particle %d at %v outside the unit square", i, z)
		}
	}
	return nil
}

// Result holds per-particle potentials and potential gradients.
type Result struct {
	// Potential[i] = sum_{j != i} Q[j] * log|Pos[i] - Pos[j]|.
	Potential []float64
	// Gradient[i] is the gradient of Potential at particle i, packed as
	// gx + i*gy.
	Gradient []complex128
}

// SolveDirect computes potentials and gradients by direct summation,
// parallelized over target particles. Coincident particle pairs are
// skipped (their interaction is singular).
func SolveDirect(s System, workers int) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	n := len(s.Pos)
	res := Result{
		Potential: make([]float64, n),
		Gradient:  make([]complex128, n),
	}
	parallelRows(n, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			zi := s.Pos[i]
			var pot float64
			var grad complex128
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				d := zi - s.Pos[j]
				if d == 0 {
					continue
				}
				pot += s.Q[j] * realLog(d)
				grad += complex(s.Q[j], 0) / d
			}
			res.Potential[i] = pot
			res.Gradient[i] = cmplx.Conj(grad)
		}
	})
	return res, nil
}

// realLog returns log|d| for complex d.
func realLog(d complex128) float64 {
	return real(cmplx.Log(d))
}

// TotalEnergy returns the pairwise interaction energy
// 1/2 sum_i Q[i]*Potential[i] — a convenient scalar for conservation
// and regression checks.
func TotalEnergy(s System, r Result) float64 {
	var e float64
	for i, q := range s.Q {
		e += q * r.Potential[i]
	}
	return e / 2
}
