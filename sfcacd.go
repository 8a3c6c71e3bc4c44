// Package sfcacd is a library for evaluating space-filling curves in
// parallel scientific computing applications, reproducing "Empirical
// Analysis of Space-Filling Curves for Scientific Computing
// Applications" (DeFord & Kalyanaraman, ICPP 2013).
//
// The library centers on the Average Communicated Distance (ACD)
// metric: given a particle set, a particle-order space-filling curve,
// a network topology (whose mesh/torus rank placement follows a
// processor-order curve), and a communication model, the ACD is the
// average shortest-path hop distance over every pairwise communication
// the application performs. The bundled communication model abstracts
// the Fast Multipole Method's near-field and far-field interactions; a
// real 2D FMM solver is included as the motivating application, and
// the Average Nearest Neighbor Stretch (ANNS) metric is provided for
// application-independent comparisons.
//
// # Quick start
//
//	pts, _ := sfcacd.SampleUnique(sfcacd.Uniform, sfcacd.NewRand(1), 10, 250000)
//	a, _ := sfcacd.Assign(pts, sfcacd.Hilbert, 10, 65536)
//	torus := sfcacd.NewTorus(8, sfcacd.Hilbert)
//	fmt.Println(sfcacd.NFI(a, torus, sfcacd.NFIOptions{Radius: 1}).ACD())
//
// The subpackages under internal/ carry the implementation; this
// package is the supported public surface.
package sfcacd

import (
	"sfcacd/internal/acd"
	"sfcacd/internal/anns"
	"sfcacd/internal/dist"
	"sfcacd/internal/execmodel"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/geom3"
	"sfcacd/internal/keynav"
	"sfcacd/internal/model3d"
	"sfcacd/internal/nbody"
	"sfcacd/internal/primitives"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// --- Geometry ---

// Point is a cell coordinate on the 2^k x 2^k spatial resolution.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y uint32) Point { return geom.Pt(x, y) }

// Metric selects a spatial distance (Chebyshev or Manhattan).
type Metric = geom.Metric

// Spatial metrics.
const (
	MetricChebyshev = geom.MetricChebyshev
	MetricManhattan = geom.MetricManhattan
)

// --- Random numbers ---

// Rand is the deterministic generator used throughout the library.
type Rand = rng.Rand

// NewRand returns a deterministic generator for the given seed.
func NewRand(seed uint64) *Rand { return rng.New(seed) }

// --- Space-filling curves ---

// Curve maps between 2D cells and positions along a space-filling
// curve.
type Curve = sfc.Curve

// The curves studied in the paper, plus the snake-scan and Moore-loop
// extensions.
var (
	Hilbert  = sfc.Hilbert
	ZCurve   = sfc.Morton
	GrayCode = sfc.Gray
	RowMajor = sfc.RowMajor
	Snake    = sfc.Snake
	Moore    = sfc.Moore
)

// Curves returns the paper's four curves (Hilbert, Z, Gray, row
// major).
func Curves() []Curve { return sfc.All() }

// CurveByName resolves a curve from its name or common aliases.
func CurveByName(name string) (Curve, error) { return sfc.ByName(name) }

// NDCurve is an n-dimensional space-filling curve (3D Morton/Hilbert
// generalizations).
type NDCurve = sfc.NDCurve

// MortonND is the n-dimensional Z-curve.
type MortonND = sfc.MortonND

// HilbertND is the n-dimensional Hilbert curve (Skilling's algorithm).
type HilbertND = sfc.HilbertND

// --- Input distributions ---

// Sampler draws random particle cells.
type Sampler = dist.Sampler

// The paper's three input distributions.
var (
	Uniform     = dist.Uniform
	Normal      = dist.Normal
	Exponential = dist.Exponential
)

// Distributions returns the paper's three samplers.
func Distributions() []Sampler { return dist.All() }

// SamplerByName resolves a distribution by name.
func SamplerByName(name string) (Sampler, error) { return dist.ByName(name) }

// SampleUnique draws n distinct cells (at most one particle per finest
// cell, per the paper's assumption).
func SampleUnique(s Sampler, r *Rand, order uint, n int) ([]Point, error) {
	return dist.SampleUnique(s, r, order, n)
}

// --- Topologies ---

// Topology is a processor network with a shortest-path hop metric.
type Topology = topology.Topology

// NewTopology constructs one of the six paper topologies ("bus",
// "ring", "mesh", "torus", "quadtree", "hypercube") with p processors;
// placement is the processor-order curve for mesh/torus.
func NewTopology(name string, p int, placement Curve) (Topology, error) {
	return topology.New(name, p, placement)
}

// Topology constructors.
var (
	NewBus         = topology.NewBus
	NewRing        = topology.NewRing
	NewMesh        = topology.NewMesh
	NewTorus       = topology.NewTorus
	NewHypercube   = topology.NewHypercube
	NewQuadtreeNet = topology.NewQuadtreeNet
)

// TopologyKinds lists the six topology names.
func TopologyKinds() []string { return append([]string(nil), topology.Kinds...) }

// --- ACD pipeline ---

// Accumulator tallies communication events and distances; ACD() is
// their average.
type Accumulator = acd.Accumulator

// Assignment distributes SFC-ordered particles onto processors (§IV
// steps 1-4 of the paper).
type Assignment = acd.Assignment

// Assign orders particles along the curve, chunks them, and assigns
// chunk i to rank i. Duplicate cells and cells outside the grid are
// errors.
func Assign(particles []Point, curve Curve, order uint, p int) (*Assignment, error) {
	set, err := keynav.NewSet(nil, order, particles)
	if err != nil {
		return nil, err
	}
	return acd.Assign(nil, set, curve, p)
}

// AssignmentFromOwners builds an Assignment from an explicit
// particle-to-rank ownership (ranks[i] owns particles[i]), for dynamic
// studies where particles move while their owners stay fixed.
func AssignmentFromOwners(particles []Point, ranks []int32, order uint, p int) (*Assignment, error) {
	set, err := keynav.NewSet(nil, order, particles)
	if err != nil {
		return nil, err
	}
	return acd.FromOwners(nil, set, ranks, p)
}

// WeightedAccumulator is the data-volume-weighted ACD accumulator
// (future-work item i).
type WeightedAccumulator = acd.WeightedAccumulator

// --- FMM communication model ---

// NFIOptions configures the near-field model.
type NFIOptions = fmmmodel.NFIOptions

// FFIOptions configures the far-field model.
type FFIOptions = fmmmodel.FFIOptions

// FFIResult breaks the far-field ACD into interpolation,
// anterpolation, and interaction-list components.
type FFIResult = fmmmodel.FFIResult

// NFI computes the near-field ACD of an assignment on a topology. The
// topology must have the assignment's processor count; NFI panics
// otherwise.
func NFI(a *Assignment, topo Topology, opts NFIOptions) Accumulator {
	return fmmmodel.NFIMulti(a, []Topology{topo}, opts)[0]
}

// FFI computes the far-field ACD of an assignment on a topology. The
// topology must have the assignment's processor count; FFI panics
// otherwise.
func FFI(a *Assignment, topo Topology, opts FFIOptions) FFIResult {
	return fmmmodel.FFIMulti(a, []Topology{topo}, opts)[0]
}

// --- ANNS metric ---

// ANNSOptions configures the stretch metric.
type ANNSOptions = anns.Options

// ANNSResult carries the averaged stretch.
type ANNSResult = anns.Result

// ANNS computes the (generalized) average nearest neighbor stretch of
// a curve at a resolution order.
func ANNS(c Curve, order uint, opts ANNSOptions) ANNSResult {
	return anns.Stretch(c, order, opts)
}

// MaxStretch returns the worst-case stretch over all pairs within the
// radius (the maximum nearest neighbor stretch of Xu-Tirthapura).
func MaxStretch(c Curve, order uint, opts ANNSOptions) float64 {
	return anns.MaxStretch(c, order, opts)
}

// AllPairsStretch estimates the mean stretch over random point pairs.
func AllPairsStretch(c Curve, order uint, samples int, r *Rand) ANNSResult {
	return anns.AllPairsStretch(c, order, samples, r)
}

// --- Execution cost model ---

// ExecTally accumulates per-processor message/hop/work costs from
// communication event streams.
type ExecTally = execmodel.Tally

// ExecCostParams parameterizes the bulk-synchronous cost model.
type ExecCostParams = execmodel.CostParams

// CollectNFITally tallies one near-field step's per-processor costs.
func CollectNFITally(a *Assignment, topo Topology, opts NFIOptions) *ExecTally {
	return execmodel.CollectNFI(a, topo, opts)
}

// CollectFFITally tallies one far-field step's per-processor costs.
func CollectFFITally(a *Assignment, topo Topology) *ExecTally {
	return execmodel.CollectFFI(a, topo)
}

// --- Communication primitives (§VII) ---

// Primitive ACD calculators over any topology.
var (
	Broadcast      = primitives.Broadcast
	Reduce         = primitives.Reduce
	AllToAll       = primitives.AllToAll
	ParallelPrefix = primitives.ParallelPrefix
	RingExchange   = primitives.RingExchange
	QuadTreeGather = primitives.QuadTreeGather
)

// CommProfile is an application's communication demand as a weighted
// primitive mix, evaluated against candidate topologies before
// implementation (§VII).
type CommProfile = primitives.Profile

// CommProfileEntry is one weighted phase of a CommProfile.
type CommProfileEntry = primitives.ProfileEntry

// --- 3D extension (paper future-work item ii) ---

// Point3 is a 3D cell coordinate.
type Point3 = geom3.Point3

// Pt3 constructs a Point3.
func Pt3(x, y, z uint32) Point3 { return geom3.Pt3(x, y, z) }

// Curves3D returns the four 3D curve families (Hilbert, Z, Gray, row
// major).
func Curves3D() []NDCurve { return sfc.AllND(3) }

// Samplers3D returns the three 3D input distributions.
func Samplers3D() []dist.Sampler3 { return dist.All3() }

// SampleUnique3 draws n distinct 3D cells.
func SampleUnique3(s dist.Sampler3, r *Rand, order uint, n int) ([]Point3, error) {
	return dist.SampleUnique3(s, r, order, n)
}

// Assignment3D distributes 3D particles onto processors.
type Assignment3D = model3d.Assignment

// Assign3D orders 3D particles along an NDCurve and chunks them onto p
// processors.
func Assign3D(particles []Point3, curve NDCurve, order uint, p int) (*Assignment3D, error) {
	return model3d.Assign(particles, curve, order, p)
}

// NFI3DOptions configures the 3D near-field model.
type NFI3DOptions = model3d.NFIOptions

// NFI3D computes the 3D near-field ACD.
func NFI3D(a *Assignment3D, topo Topology, opts NFI3DOptions) Accumulator {
	return model3d.NFI(nil, a, topo, opts)
}

// FFI3D computes the 3D far-field ACD over the octree decomposition.
func FFI3D(a *Assignment3D, topo Topology, workers int) model3d.FFIResult {
	return model3d.FFI(nil, a, topo, workers)
}

// 3D topology constructors.
var (
	NewMesh3D    = topology.NewMesh3D
	NewTorus3D   = topology.NewTorus3D
	NewOctreeNet = topology.NewOctreeNet
)

// ANNS3D computes the 3D average nearest neighbor stretch of a 3D
// curve.
func ANNS3D(curve NDCurve, order uint, radius int) (mean float64, pairs uint64) {
	return model3d.ANNS3D(curve, order, radius)
}

// --- FMM n-body solver ---

// NBodySystem is a set of charged particles in the unit square.
type NBodySystem = nbody.System

// NBodyResult holds per-particle potentials and gradients.
type NBodyResult = nbody.Result

// FMMSolverOptions tunes the fast multipole solver.
type FMMSolverOptions = nbody.FMMOptions

// SolveFMM computes potentials with the 2D fast multipole method.
func SolveFMM(s NBodySystem, opts FMMSolverOptions) (NBodyResult, error) {
	return nbody.SolveFMM(s, opts)
}

// SolveDirect computes potentials by O(n^2) direct summation.
func SolveDirect(s NBodySystem, workers int) (NBodyResult, error) {
	return nbody.SolveDirect(s, workers)
}

// NBodySimulator advances a system through time with velocity Verlet,
// using the FMM (or direct) solver for forces.
type NBodySimulator = nbody.Simulator

// NewNBodySimulator builds a simulator with zero initial velocities.
func NewNBodySimulator(sys NBodySystem, dt float64) (*NBodySimulator, error) {
	return nbody.NewSimulator(sys, dt)
}
