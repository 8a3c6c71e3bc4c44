// nbody runs the application the paper's communication model
// abstracts: a 2D fast multipole solve of the n-body potential
// problem, validated against direct summation.
//
// Run with: go run ./examples/nbody [-n 20000] [-terms 20]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"sfcacd"
)

func main() {
	var (
		n     = flag.Int("n", 20000, "number of particles")
		terms = flag.Int("terms", 20, "multipole expansion order")
	)
	flag.Parse()

	// A plasma-like system: alternating +1/-1 charges, uniform in the
	// unit square.
	r := sfcacd.NewRand(7)
	sys := sfcacd.NBodySystem{
		Pos: make([]complex128, *n),
		Q:   make([]float64, *n),
	}
	for i := 0; i < *n; i++ {
		sys.Pos[i] = complex(r.Float64(), r.Float64())
		if i%2 == 0 {
			sys.Q[i] = 1
		} else {
			sys.Q[i] = -1
		}
	}

	start := time.Now()
	fmm, err := sfcacd.SolveFMM(sys, sfcacd.FMMSolverOptions{Terms: *terms})
	if err != nil {
		log.Fatal(err)
	}
	fmmTime := time.Since(start)

	start = time.Now()
	direct, err := sfcacd.SolveDirect(sys, 0)
	if err != nil {
		log.Fatal(err)
	}
	directTime := time.Since(start)

	var maxErr, maxMag float64
	for i := range fmm.Potential {
		if d := abs(fmm.Potential[i] - direct.Potential[i]); d > maxErr {
			maxErr = d
		}
		if m := abs(direct.Potential[i]); m > maxMag {
			maxMag = m
		}
	}
	fmt.Printf("n = %d particles, %d expansion terms\n", *n, *terms)
	fmt.Printf("FMM:    %v\n", fmmTime.Round(time.Millisecond))
	fmt.Printf("direct: %v  (%.1fx slower than FMM)\n", directTime.Round(time.Millisecond),
		float64(directTime)/float64(fmmTime))
	fmt.Printf("max relative potential error: %.2e\n", maxErr/maxMag)
	fmt.Printf("sample: potential at particle 0 = %.6f (direct %.6f)\n",
		fmm.Potential[0], direct.Potential[0])
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
