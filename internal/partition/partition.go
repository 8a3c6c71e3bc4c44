// Package partition implements step 2 and 4 of the paper's §IV
// pipeline: splitting a linearly ordered particle set into p
// consecutive chunks and assigning chunk i to processor i.
package partition

import "fmt"

// ChunkOf returns the chunk (= processor rank) owning the j-th element
// of n linearly ordered elements split into p balanced consecutive
// chunks. Chunks differ in size by at most one and ranks are
// monotonically non-decreasing in j — the property the quadtree
// representative computation relies on.
func ChunkOf(j, n, p int) int {
	if n <= 0 || p <= 0 || j < 0 || j >= n {
		panic(fmt.Sprintf("partition: ChunkOf(%d, %d, %d) out of range", j, n, p))
	}
	// Balanced: the first n%p chunks hold ceil(n/p) elements. The
	// closed form floor((j*p + p - 1? )) — use exact integer math:
	// rank r owns [r*n/p, (r+1)*n/p), so r = floor((j*p + p - 1)/n)?
	// Simplest correct inverse: r = (j*p)/n adjusted for rounding.
	r := j * p / n
	// Guard against boundary rounding: ensure j is inside r's range.
	for Start(r, n, p) > j {
		r--
	}
	for End(r, n, p) <= j {
		r++
	}
	return r
}

// Start returns the first ordered position owned by rank r.
func Start(r, n, p int) int { return r * n / p }

// End returns one past the last ordered position owned by rank r.
func End(r, n, p int) int { return (r + 1) * n / p }
