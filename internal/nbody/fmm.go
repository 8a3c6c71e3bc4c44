package nbody

import (
	"math/cmplx"
	"runtime"

	"sfcacd/internal/panics"
)

// FMMOptions tunes the fast multipole solver.
type FMMOptions struct {
	// Terms is the expansion order P (default 20). Larger is more
	// accurate: the error decays geometrically in P.
	Terms int
	// LeafSize is the target number of particles per leaf cell
	// (default 32); the tree depth is chosen so the average leaf
	// occupancy is about this.
	LeafSize int
	// MaxDepth caps the uniform tree depth (default 10).
	MaxDepth int
	// Workers caps the worker goroutines; 0 means GOMAXPROCS.
	Workers int
}

func (o *FMMOptions) normalize() {
	if o.Terms <= 0 {
		o.Terms = 20
	}
	if o.LeafSize <= 0 {
		o.LeafSize = 32
	}
	if o.MaxDepth <= 0 {
		o.MaxDepth = 10
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
}

// fmmTree is the uniform quadtree state of one solve.
type fmmTree struct {
	terms int
	// binom[a][b] = C(a, b), a <= 2*terms+2.
	binom [][]float64
	depth int // leaf level
	// Per level l: side = 2^l cells; multipole and local expansions,
	// each terms+1 complex coefficients per cell (index 0 is the
	// log/constant term).
	multipole [][]complex128
	local     [][]complex128
	// Leaf bucketing: particle indices grouped by leaf cell id.
	leafStart []int32
	leafItems []int32
}

func newBinomTable(max int) [][]float64 {
	b := make([][]float64, max+1)
	for a := 0; a <= max; a++ {
		b[a] = make([]float64, a+1)
		b[a][0] = 1
		for k := 1; k <= a; k++ {
			if k == a {
				b[a][k] = 1
			} else {
				b[a][k] = b[a-1][k-1] + b[a-1][k]
			}
		}
	}
	return b
}

// cellCenter returns the center of cell (ix, iy) at the given level.
func cellCenter(level, ix, iy int) complex128 {
	w := 1.0 / float64(int(1)<<level)
	return complex((float64(ix)+0.5)*w, (float64(iy)+0.5)*w)
}

// SolveFMM computes potentials and gradients with the fast multipole
// method. Results converge to SolveDirect's as Terms grows.
func SolveFMM(s System, opts FMMOptions) (Result, error) {
	if err := s.Validate(); err != nil {
		return Result{}, err
	}
	opts.normalize()
	n := len(s.Pos)
	t := &fmmTree{terms: opts.Terms, binom: newBinomTable(2*opts.Terms + 2)}
	// Depth so that average occupancy ~ LeafSize; at least 2 so
	// interaction lists exist.
	t.depth = 2
	for t.depth < opts.MaxDepth && n > opts.LeafSize*(1<<(2*t.depth)) {
		t.depth++
	}
	t.allocate()
	t.bucket(s)
	t.p2m(s)
	t.m2m()
	t.downward(opts.Workers)
	return t.evaluate(s, opts.Workers)
}

func (t *fmmTree) allocate() {
	t.multipole = make([][]complex128, t.depth+1)
	t.local = make([][]complex128, t.depth+1)
	for l := 0; l <= t.depth; l++ {
		cells := 1 << (2 * l)
		t.multipole[l] = make([]complex128, cells*(t.terms+1))
		t.local[l] = make([]complex128, cells*(t.terms+1))
	}
}

// coeffs returns the coefficient slice of a cell within a level array.
func (t *fmmTree) coeffs(arr []complex128, cell int) []complex128 {
	return arr[cell*(t.terms+1) : (cell+1)*(t.terms+1)]
}

// leafIndex returns the leaf cell id (row-major) of a position.
func (t *fmmTree) leafIndex(z complex128) int {
	side := 1 << t.depth
	ix := int(real(z) * float64(side))
	iy := int(imag(z) * float64(side))
	if ix >= side {
		ix = side - 1
	}
	if iy >= side {
		iy = side - 1
	}
	return iy*side + ix
}

// bucket groups particle indices by leaf via counting sort.
func (t *fmmTree) bucket(s System) {
	leaves := 1 << (2 * t.depth)
	counts := make([]int32, leaves+1)
	ids := make([]int32, len(s.Pos))
	for i, z := range s.Pos {
		id := int32(t.leafIndex(z))
		ids[i] = id
		counts[id+1]++
	}
	for i := 1; i <= leaves; i++ {
		counts[i] += counts[i-1]
	}
	t.leafStart = counts
	t.leafItems = make([]int32, len(s.Pos))
	cursor := make([]int32, leaves)
	for i := range s.Pos {
		id := ids[i]
		t.leafItems[counts[id]+cursor[id]] = int32(i)
		cursor[id]++
	}
}

// leafParticles returns the particle indices in a leaf.
func (t *fmmTree) leafParticles(cell int) []int32 {
	return t.leafItems[t.leafStart[cell]:t.leafStart[cell+1]]
}

// p2m forms multipole expansions at the leaves (Greengard & Rokhlin
// Theorem 2.1): a_0 = sum q_i, a_k = sum -q_i (z_i - zc)^k / k.
func (t *fmmTree) p2m(s System) {
	side := 1 << t.depth
	mp := t.multipole[t.depth]
	for iy := 0; iy < side; iy++ {
		for ix := 0; ix < side; ix++ {
			cell := iy*side + ix
			items := t.leafParticles(cell)
			if len(items) == 0 {
				continue
			}
			zc := cellCenter(t.depth, ix, iy)
			a := t.coeffs(mp, cell)
			for _, pi := range items {
				q := s.Q[pi]
				dz := s.Pos[pi] - zc
				a[0] += complex(q, 0)
				pw := complex(1, 0)
				for k := 1; k <= t.terms; k++ {
					pw *= dz
					a[k] -= complex(q/float64(k), 0) * pw
				}
			}
		}
	}
}

// m2m translates children multipoles to their parents (Lemma 2.3):
// with z0 the child center relative to the parent center,
// b_0 = a_0, b_l = -a_0 z0^l / l + sum_{k=1..l} a_k z0^{l-k} C(l-1,k-1).
func (t *fmmTree) m2m() {
	for l := t.depth - 1; l >= 0; l-- {
		side := 1 << l
		parentArr := t.multipole[l]
		childArr := t.multipole[l+1]
		for iy := 0; iy < side; iy++ {
			for ix := 0; ix < side; ix++ {
				pc := t.coeffs(parentArr, iy*side+ix)
				zp := cellCenter(l, ix, iy)
				for cy := 0; cy < 2; cy++ {
					for cx := 0; cx < 2; cx++ {
						cix, ciy := 2*ix+cx, 2*iy+cy
						cc := t.coeffs(childArr, ciy*(side*2)+cix)
						if isZero(cc) {
							continue
						}
						z0 := cellCenter(l+1, cix, ciy) - zp
						t.shiftMultipole(cc, z0, pc)
					}
				}
			}
		}
	}
}

// shiftMultipole adds the multipole expansion src (about a center
// offset by z0 from dst's center) into dst.
func (t *fmmTree) shiftMultipole(src []complex128, z0 complex128, dst []complex128) {
	dst[0] += src[0]
	// Powers of z0 up to terms.
	pw := make([]complex128, t.terms+1)
	pw[0] = 1
	for i := 1; i <= t.terms; i++ {
		pw[i] = pw[i-1] * z0
	}
	for l := 1; l <= t.terms; l++ {
		sum := -src[0] * pw[l] / complex(float64(l), 0)
		for k := 1; k <= l; k++ {
			sum += src[k] * pw[l-k] * complex(t.binom[l-1][k-1], 0)
		}
		dst[l] += sum
	}
}

// m2l converts a multipole expansion about a center offset z0 from the
// local center into a local expansion (Lemma 2.4):
// b_0 = a_0 log(-z0) + sum_k a_k (-1)^k / z0^k
// b_l = -a_0/(l z0^l) + (1/z0^l) sum_k a_k (-1)^k C(l+k-1,k-1) / z0^k.
func (t *fmmTree) m2l(src []complex128, z0 complex128, dst []complex128) {
	inv := 1 / z0
	// s_k = a_k (-1)^k / z0^k for k >= 1.
	sk := make([]complex128, t.terms+1)
	ipw := inv
	sign := -1.0
	for k := 1; k <= t.terms; k++ {
		sk[k] = src[k] * complex(sign, 0) * ipw
		ipw *= inv
		sign = -sign
	}
	var b0 complex128
	b0 = src[0] * cmplx.Log(-z0)
	for k := 1; k <= t.terms; k++ {
		b0 += sk[k]
	}
	dst[0] += b0
	zl := complex(1, 0)
	for l := 1; l <= t.terms; l++ {
		zl *= inv // 1/z0^l
		sum := -src[0] / complex(float64(l), 0) * zl
		var inner complex128
		for k := 1; k <= t.terms; k++ {
			inner += sk[k] * complex(t.binom[l+k-1][k-1], 0)
		}
		sum += zl * inner
		dst[l] += sum
	}
}

// l2l shifts a parent's local expansion (about a center offset by z0
// from the child center... specifically src is about zp, dst about zc,
// z0 = zp - zc is the source center relative to the destination) into
// the child (Lemma 2.5): a_l = sum_{k=l} b_k C(k,l) (-z0)^{k-l}.
func (t *fmmTree) l2l(src []complex128, z0 complex128, dst []complex128) {
	mz := -z0
	pw := make([]complex128, t.terms+1)
	pw[0] = 1
	for i := 1; i <= t.terms; i++ {
		pw[i] = pw[i-1] * mz
	}
	for l := 0; l <= t.terms; l++ {
		var sum complex128
		for k := l; k <= t.terms; k++ {
			sum += src[k] * complex(t.binom[k][l], 0) * pw[k-l]
		}
		dst[l] += sum
	}
}

func isZero(c []complex128) bool {
	for _, v := range c {
		if v != 0 {
			return false
		}
	}
	return true
}

// downward performs L2L + M2L from level 2 to the leaves,
// parallelized over cells within each level.
func (t *fmmTree) downward(workers int) {
	for l := 2; l <= t.depth; l++ {
		side := 1 << l
		locArr := t.local[l]
		mpArr := t.multipole[l]
		var parentLoc []complex128
		if l > 2 {
			parentLoc = t.local[l-1]
		}
		parallelRows(side, workers, func(yLo, yHi int) {
			for iy := yLo; iy < yHi; iy++ {
				for ix := 0; ix < side; ix++ {
					cell := iy*side + ix
					dst := t.coeffs(locArr, cell)
					zc := cellCenter(l, ix, iy)
					if parentLoc != nil {
						pc := t.coeffs(parentLoc, (iy/2)*(side/2)+ix/2)
						if !isZero(pc) {
							zp := cellCenter(l-1, ix/2, iy/2)
							t.l2l(pc, zp-zc, dst)
						}
					}
					// M2L over the interaction list: children of the
					// parent's neighbors that are not adjacent to this
					// cell.
					px, py := ix/2, iy/2
					pside := side / 2
					for ny := py - 1; ny <= py+1; ny++ {
						if ny < 0 || ny >= pside {
							continue
						}
						for nx := px - 1; nx <= px+1; nx++ {
							if nx < 0 || nx >= pside {
								continue
							}
							for dy := 0; dy < 2; dy++ {
								for dx := 0; dx < 2; dx++ {
									sx, sy := 2*nx+dx, 2*ny+dy
									if abs(sx-ix) <= 1 && abs(sy-iy) <= 1 {
										continue
									}
									src := t.coeffs(mpArr, sy*side+sx)
									if isZero(src) {
										continue
									}
									zs := cellCenter(l, sx, sy)
									t.m2l(src, zs-zc, dst)
								}
							}
						}
					}
				}
			}
		})
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// parallelRows splits [0, side) row stripes over workers and blocks
// until all complete. The first stripe panic is re-raised on the
// caller once every stripe has returned.
func parallelRows(side, workers int, fn func(yLo, yHi int)) {
	workers = max(min(workers, side), 1)
	stripe := max((side+workers-1)/workers, 1)
	panics.Parallel(workers, (side+stripe-1)/stripe, func(_, task int) {
		fn(task*stripe, min((task+1)*stripe, side))
	})
}

// evaluate computes the final per-particle results: local expansion at
// the leaf plus direct interactions with the (<=9) adjacent leaves.
func (t *fmmTree) evaluate(s System, workers int) (Result, error) {
	n := len(s.Pos)
	res := Result{Potential: make([]float64, n), Gradient: make([]complex128, n)}
	side := 1 << t.depth
	locArr := t.local[t.depth]
	parallelRows(side, workers, func(yLo, yHi int) {
		for iy := yLo; iy < yHi; iy++ {
			for ix := 0; ix < side; ix++ {
				cell := iy*side + ix
				items := t.leafParticles(cell)
				if len(items) == 0 {
					continue
				}
				zc := cellCenter(t.depth, ix, iy)
				loc := t.coeffs(locArr, cell)
				for _, pi := range items {
					z := s.Pos[pi]
					// Far field: evaluate the local expansion and its
					// derivative by Horner.
					dz := z - zc
					var phi, dphi complex128
					for k := t.terms; k >= 1; k-- {
						phi = phi*dz + loc[k]
						if k >= 2 {
							dphi = dphi*dz + loc[k]*complex(float64(k), 0)
						}
					}
					dphi = dphi*dz + loc[1]
					phi = phi*dz + loc[0]
					pot := real(phi)
					grad := dphi
					// Near field: direct interactions with adjacent
					// leaves (including own leaf).
					for ny := iy - 1; ny <= iy+1; ny++ {
						if ny < 0 || ny >= side {
							continue
						}
						for nx := ix - 1; nx <= ix+1; nx++ {
							if nx < 0 || nx >= side {
								continue
							}
							for _, qi := range t.leafParticles(ny*side + nx) {
								if qi == pi {
									continue
								}
								d := z - s.Pos[qi]
								if d == 0 {
									continue
								}
								pot += s.Q[qi] * realLog(d)
								grad += complex(s.Q[qi], 0) / d
							}
						}
					}
					res.Potential[pi] = pot
					res.Gradient[pi] = cmplx.Conj(grad)
				}
			}
		}
	})
	return res, nil
}
