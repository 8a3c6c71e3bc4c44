// Package model3d extends the paper's FMM communication model to
// three dimensions (future-work item ii): particles on a 2^k cube are
// ordered by a 3D space-filling curve, chunked onto processors, and
// the near-field and far-field ACD computed over an octree domain
// decomposition.
package model3d

import (
	"fmt"
	"runtime"
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/geom"
	"sfcacd/internal/geom3"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/octree"
	"sfcacd/internal/panics"
	"sfcacd/internal/partition"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// Assignment distributes 3D particles onto processors: the §IV
// pipeline with a 3D curve.
type Assignment struct {
	// Order is the resolution order (cube side 2^Order).
	Order uint
	// P is the processor count.
	P int
	// Particles are the particle cells in curve order.
	Particles []geom3.Point3
	// Ranks[i] owns Particles[i]; monotone non-decreasing.
	Ranks []int32
	side  uint32
	// keyIx is the flat Morton3-key index that resolves cells to ranks,
	// built on first use: memory is proportional to the particle count,
	// not to the 8^Order cube.
	ixOnce sync.Once
	keyIx  *keynav.Flat
}

// keyIndex returns the assignment's flat key-space index, building it
// on first call.
func (a *Assignment) keyIndex() *keynav.Flat {
	a.ixOnce.Do(func() {
		keys := make([]uint64, len(a.Particles))
		ranks := make([]int32, len(a.Particles))
		for i, p := range a.Particles {
			keys[i] = sfc.Morton3Key(p.X, p.Y, p.Z)
			ranks[i] = a.Ranks[i]
		}
		a.keyIx = keynav.NewFlat(keys, ranks, 3*a.Order)
	})
	return a.keyIx
}

// Assign orders particles along the 3D curve, chunks them, and
// assigns chunk i to rank i. Duplicate cells are rejected.
func Assign(particles []geom3.Point3, curve sfc.NDCurve, order uint, p int) (*Assignment, error) {
	if curve.Dims() != 3 {
		return nil, fmt.Errorf("model3d: curve %s has %d dims, want 3", curve.Name(), curve.Dims())
	}
	if p < 1 {
		return nil, fmt.Errorf("model3d: p = %d must be positive", p)
	}
	if len(particles) == 0 {
		return nil, fmt.Errorf("model3d: no particles")
	}
	n := len(particles)
	keys := make([]uint64, n)
	buf := make([]uint32, 3)
	for i, pt := range particles {
		buf[0], buf[1], buf[2] = pt.X, pt.Y, pt.Z
		keys[i] = curve.IndexND(order, buf)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	sfc.SortPermByKeys(perm, keys)
	a := &Assignment{
		Order:     order,
		P:         p,
		Particles: make([]geom3.Point3, n),
		Ranks:     make([]int32, n),
		side:      geom3.Side(order),
	}
	var prev uint64
	for i, src := range perm {
		if i > 0 && keys[src] == prev {
			return nil, fmt.Errorf("model3d: duplicate particle cell %v", particles[src])
		}
		prev = keys[src]
		a.Particles[i] = particles[src]
		a.Ranks[i] = int32(partition.ChunkOf(i, n, p))
	}
	return a, nil
}

// Side returns the cube side.
func (a *Assignment) Side() uint32 { return a.side }

// N returns the particle count.
func (a *Assignment) N() int { return len(a.Particles) }

// RankAt returns the rank owning the particle in a cell, or -1 for an
// empty cell or one outside the cube.
func (a *Assignment) RankAt(p geom3.Point3) int32 {
	if p.X >= a.side || p.Y >= a.side || p.Z >= a.side {
		return -1
	}
	return a.keyIndex().Rank(sfc.Morton3Key(p.X, p.Y, p.Z))
}

// NFIOptions configures the 3D near-field model.
type NFIOptions struct {
	// Radius is the neighborhood radius (default 1: the 26
	// face/edge/corner neighbors).
	Radius int
	// Metric selects the ball shape (default Chebyshev).
	Metric geom.Metric
	// Workers caps worker goroutines; 0 means GOMAXPROCS.
	Workers int
}

// NFI computes the 3D near-field ACD, timed as an accumulation.nfi
// phase under parent (nil records none).
func NFI(parent *obs.Span, a *Assignment, topo topology.Topology, opts NFIOptions) acd.Accumulator {
	defer parent.Child("accumulation.nfi").End()
	if opts.Radius == 0 {
		opts.Radius = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	// Neighbor cells resolve to ranks by directory-narrowed key search
	// on the flat index; the 3D grid is always too large for a dense
	// table.
	flat := a.keyIndex()
	n := a.N()
	workers := max(min(opts.Workers, n), 1)
	chunk := (n + workers - 1) / workers
	parts := make([]acd.Accumulator, workers)
	panics.Parallel(workers, workers, func(_, task int) {
		var local acd.Accumulator
		for i := task * chunk; i < min((task+1)*chunk, n); i++ {
			p := a.Particles[i]
			mine := int(a.Ranks[i])
			geom3.VisitNeighborhood(p, opts.Radius, opts.Metric, a.side, func(q geom3.Point3) {
				if r := flat.Rank(sfc.Morton3Key(q.X, q.Y, q.Z)); r >= 0 {
					local.Add(topo.Distance(mine, int(r)))
				}
			})
		}
		parts[task] = local
	})
	var total acd.Accumulator
	for _, part := range parts {
		total.Merge(part)
	}
	// One Distance call per recorded event.
	total.Record()
	topology.CountDistanceQueries(total.Count)
	return total
}

// FFIResult is the far-field breakdown (as in 2D).
type FFIResult struct {
	Interpolation   acd.Accumulator
	Anterpolation   acd.Accumulator
	InteractionList acd.Accumulator
}

// Total merges the three parts.
func (r FFIResult) Total() acd.Accumulator {
	var t acd.Accumulator
	t.Merge(r.Interpolation)
	t.Merge(r.Anterpolation)
	t.Merge(r.InteractionList)
	return t
}

// FFI computes the 3D far-field ACD over the octree, timed as an
// accumulation.ffi phase under parent (nil records none) with the
// tree's build beneath.
func FFI(parent *obs.Span, a *Assignment, topo topology.Topology, workers int) FFIResult {
	acc := parent.Child("accumulation.ffi")
	defer acc.End()
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	treebuild := acc.Child("treebuild")
	tree := octree.BuildRankTree(a.Order, a.Particles, a.Ranks)
	treebuild.End()
	var res FFIResult
	for l := tree.Order; l >= 1; l-- {
		tree.VisitCells(l, func(p geom3.Point3, rep int32) {
			up := tree.Rep(l-1, geom3.Pt3(p.X/2, p.Y/2, p.Z/2))
			d := topo.Distance(int(rep), int(up))
			res.Interpolation.Add(d)
			res.Anterpolation.Add(d)
		})
	}
	for l := uint(2); l <= tree.Order; l++ {
		res.InteractionList.Merge(interactionLevel3D(tree, topo, l, workers))
	}
	res.Interpolation.Record()
	res.Anterpolation.Record()
	res.InteractionList.Record()
	// Interpolation and anterpolation share one Distance call per
	// parent-child link, so only the interpolation count contributes.
	topology.CountDistanceQueries(res.Interpolation.Count + res.InteractionList.Count)
	return res
}

func interactionLevel3D(tree *octree.RankTree, topo topology.Topology, level uint, workers int) acd.Accumulator {
	side := geom3.Side(level)
	workers = min(workers, int(side))
	stripe := (int(side) + workers - 1) / workers
	stripes := (int(side) + stripe - 1) / stripe
	parts := make([]acd.Accumulator, stripes)
	panics.Parallel(workers, stripes, func(_, task int) {
		var local acd.Accumulator
		for z := uint32(task * stripe); z < uint32(min((task+1)*stripe, int(side))); z++ {
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					p := geom3.Pt3(x, y, z)
					rep := tree.Rep(level, p)
					if rep == -1 {
						continue
					}
					tree.InteractionList(level, p, func(_ geom3.Point3, other int32) {
						local.Add(topo.Distance(int(rep), int(other)))
					})
				}
			}
		}
		parts[task] = local
	})
	var total acd.Accumulator
	for _, part := range parts {
		total.Merge(part)
	}
	return total
}

// ANNS3D computes the 3D average nearest neighbor stretch of a 3D
// curve at a resolution order: the mean of |f(p)-f(q)| / d(p,q) over
// all unordered pairs within the given Manhattan radius.
func ANNS3D(curve sfc.NDCurve, order uint, radius int) (mean float64, pairs uint64) {
	if curve.Dims() != 3 {
		panic("model3d: ANNS3D needs a 3D curve")
	}
	if radius < 1 {
		radius = 1
	}
	side := geom3.Side(order)
	idx := make([]uint64, geom3.Cells(order))
	buf := make([]uint32, 3)
	for z := uint32(0); z < side; z++ {
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				buf[0], buf[1], buf[2] = x, y, z
				idx[geom3.CellID(geom3.Pt3(x, y, z), side)] = curve.IndexND(order, buf)
			}
		}
	}
	var sum float64
	for z := uint32(0); z < side; z++ {
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				p := geom3.Pt3(x, y, z)
				pi := idx[geom3.CellID(p, side)]
				geom3.VisitNeighborhood(p, radius, geom.MetricManhattan, side, func(q geom3.Point3) {
					// Count each unordered pair once.
					if geom3.CellID(q, side) > geom3.CellID(p, side) {
						return
					}
					qi := idx[geom3.CellID(q, side)]
					gap := pi - qi
					if qi > pi {
						gap = qi - pi
					}
					sum += float64(gap) / float64(geom3.Manhattan(p, q))
					pairs++
				})
			}
		}
	}
	if pairs == 0 {
		return 0, 0
	}
	return sum / float64(pairs), pairs
}
