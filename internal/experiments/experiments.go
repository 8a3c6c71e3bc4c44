// Package experiments contains one parameterized runner per table and
// figure of the paper's evaluation (§V–VI), plus the §VII primitive
// sweep and the contention extension. Each runner is deterministic
// given its Params (seeded sampling, fixed trial schedule) and returns
// structured results that cmd/acdbench and bench_test.go render.
//
// Paper-scale presets reproduce the published parameter settings;
// tests use scaled-down Params so the whole suite stays fast.
package experiments

import (
	"context"
	"fmt"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// Params are the shared experiment knobs.
type Params struct {
	// Particles is the input size n.
	Particles int
	// Order is the spatial resolution order k (grid side 2^k).
	Order uint
	// ProcOrder fixes the processor count p = 4^ProcOrder (the side of
	// the square mesh/torus is 2^ProcOrder).
	ProcOrder uint
	// Radius is the near-field neighborhood radius r.
	Radius int
	// Trials is the number of independent trials averaged.
	Trials int
	// Seed drives all sampling; equal seeds replay exactly.
	Seed uint64
	// Workers caps the worker goroutines of the accumulation passes;
	// 0 means GOMAXPROCS. Results are identical for any worker count;
	// the knob exists to pin parallelism for benchmarking and is
	// recorded in run manifests.
	Workers int
	// Distribution selects the particle sampling distribution by name
	// (dist.ByName); empty means uniform. Unlike Workers it changes
	// results, so non-uniform values join CanonicalKey (the uniform
	// default is omitted there, keeping every previously cached key
	// stable).
	Distribution string
}

// sampler resolves the Distribution name, panicking on values Validate
// would have rejected. Aliases normalize to the canonical singletons,
// so "exp" and "exponential" sample (and cache) identically.
func (p Params) sampler() dist.Sampler {
	if p.Distribution == "" {
		return dist.Uniform
	}
	s, err := dist.ByName(p.Distribution)
	if err != nil {
		panic(err)
	}
	return s
}

// P returns the processor count 4^ProcOrder.
func (p Params) P() int { return 1 << (2 * p.ProcOrder) }

// Validate checks that the parameters are mutually consistent.
func (p Params) Validate() error {
	if err := p.validateKnobs(); err != nil {
		return err
	}
	if p.Order > 15 {
		return fmt.Errorf("experiments: order %d too large", p.Order)
	}
	if p.ProcOrder > maxProcOrder {
		return fmt.Errorf("experiments: processor order %d exceeds %d", p.ProcOrder, maxProcOrder)
	}
	if uint64(p.Particles) > geom.Cells(p.Order) {
		return fmt.Errorf("experiments: %d particles exceed %d cells", p.Particles, geom.Cells(p.Order))
	}
	if p.Trials < 1 {
		return fmt.Errorf("experiments: need at least 1 trial")
	}
	if p.Trials > maxTrials {
		return fmt.Errorf("experiments: %d trials exceed %d", p.Trials, maxTrials)
	}
	return checkNearEvents(p.Particles, p.Radius, 2)
}

// validateKnobs checks the knobs every experiment reads alike, whatever
// configuration it derives from them: the particle count and radius
// signs, the worker count and the distribution.
func (p Params) validateKnobs() error {
	if p.Particles < 1 {
		return fmt.Errorf("experiments: need at least 1 particle")
	}
	if p.Radius < 0 {
		return fmt.Errorf("experiments: negative radius")
	}
	if p.Workers < 0 {
		return fmt.Errorf("experiments: negative worker count")
	}
	if p.Distribution != "" {
		if _, err := dist.ByName(p.Distribution); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	return nil
}

// maxProcOrder bounds ProcOrder at p = 4^10 ranks, two orders above
// the largest paper preset. A grid topology then needs 12 MiB; at
// topology.MaxProcOrder (2^30 ranks) one torus needs 12 GiB, which no
// caller can recover from.
const maxProcOrder = 10

// maxTrials bounds Trials. A sweep allocates its group slots for every
// trial up front, so a huge count exhausts memory before any work; every
// preset uses 3 or fewer.
const maxTrials = 1024

// maxNearEvents bounds the ordered near-field events of one particle
// set, particles x ((2r+1)^d - 1) for radius r (at least 1, the
// default) in d dimensions. A 2D set's near plan holds half of them as
// 8-byte pairs, so the bound caps a plan at 1 GiB: a request over it
// would exhaust memory, which no caller can recover from. The 3D near
// field visits every one of them, with no context check, so the bound
// also caps how long one 3D cell can run. The largest paper presets
// (fig6: 10^6 particles at radius 4, 80 neighbors each; threed: 2x10^5
// particles at radius 1, 26 each) stay 3.4x and 52x below it.
const maxNearEvents = 1 << 28

// checkNearEvents rejects a near field of more than maxNearEvents
// ordered events in dims (2 or 3) dimensions.
func checkNearEvents(particles, radius, dims int) error {
	r := uint64(max(radius, 1))
	// Past 2^13 the neighborhood alone exceeds the bound (and its
	// cube could overflow).
	if r < 1<<13 {
		cells := uint64(1)
		for range dims {
			cells *= 2*r + 1
		}
		if uint64(particles) <= maxNearEvents/(cells-1) {
			return nil
		}
	}
	return fmt.Errorf("experiments: %d particles at near-field radius %d exceed %d %dD near-field events", particles, radius, maxNearEvents, dims)
}

// Scale returns a copy of p with particle count and grid/processor
// orders reduced by the given factor of 4 (each step quarters the
// particles and halves the grid side), used to derive fast test
// parameters from paper presets.
func (p Params) Scale(steps uint) Params {
	q := p
	for i := uint(0); i < steps; i++ {
		if q.Particles > 16 {
			q.Particles /= 4
		}
		if q.Order > 2 {
			q.Order--
		}
		if q.ProcOrder > 1 {
			q.ProcOrder--
		}
	}
	return q
}

// Paper-scale presets (§VI).
var (
	// Table12Paper: 250,000 particles, 1024x1024 resolution, 65,536
	// processors on a torus (Tables I and II).
	Table12Paper = Params{Particles: 250000, Order: 10, ProcOrder: 8, Radius: 1, Trials: 3, Seed: 2013}
	// Fig6Paper: 1,000,000 uniform particles, 4096x4096, radius 4
	// (Figure 6); the paper does not state p, we use 65,536.
	Fig6Paper = Params{Particles: 1000000, Order: 12, ProcOrder: 8, Radius: 4, Trials: 1, Seed: 2013}
	// Fig7Paper: 1,000,000 uniform particles; p sweeps 1,024..65,536
	// (Figure 7).
	Fig7Paper = Params{Particles: 1000000, Order: 11, ProcOrder: 8, Radius: 1, Trials: 1, Seed: 2013}
)

// trialSeed derives the sampling seed of one trial.
func trialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// samplePoints draws the trial's unique particle set, timed as a
// sampling phase under parent.
func samplePoints(parent *obs.Span, s dist.Sampler, p Params, trial int) ([]geom.Point, error) {
	defer parent.Child("sampling").End()
	r := rng.New(trialSeed(p.Seed, trial))
	return dist.SampleUnique(s, r, p.Order, p.Particles)
}

// curveNames returns the display names of a curve list.
func curveNames(curves []sfc.Curve) []string {
	names := make([]string, len(curves))
	for i, c := range curves {
		names[i] = c.Name()
	}
	return names
}

// sampleSet draws the trial's unique particle set and builds its
// skeleton, which every assignment of the set labels, under parent.
func sampleSet(parent *obs.Span, s dist.Sampler, p Params, trial int) (*keynav.Set, error) {
	pts, err := samplePoints(parent, s, p, trial)
	if err != nil {
		return nil, err
	}
	return keynav.NewSet(parent, p.Order, pts)
}

// nearOptions returns the near field the sweeps model at p: radius
// p.Radius under the Chebyshev metric.
func nearOptions(p Params) fmmmodel.NFIOptions {
	return fmmmodel.NFIOptions{Radius: p.Radius, Metric: geom.MetricChebyshev}
}

// nearSet is the group build of the sweeps whose cells replay only the
// near field: trial's particle set, drawn by s at p, with its near
// plan recorded on workers goroutines under parent.
func nearSet(parent *obs.Span, s dist.Sampler, p Params, trial, workers int) (*keynav.Set, error) {
	set, err := sampleSet(parent, s, p, trial)
	if err != nil {
		return nil, err
	}
	set.Plan(parent, nearOptions(p).Spec(), workers)
	return set, nil
}

// pricedGroup is one group of a priced sweep: a trial's particle set,
// drawn by sampler at p.
type pricedGroup struct {
	sampler dist.Sampler
	p       Params
	trial   int
}

// trialGroups returns the p.Trials priced groups of one sampler at p.
func trialGroups(s dist.Sampler, p Params) []pricedGroup {
	gs := make([]pricedGroup, p.Trials)
	for trial := range gs {
		gs[trial] = pricedGroup{sampler: s, p: p, trial: trial}
	}
	return gs
}

// priced is one priced cell's output: each topology's NFI and FFI ACD,
// in the order its cell listed the topologies.
type priced struct {
	nfi, ffi []float64
}

// priceSweep runs the sweeps that price a particle set's curve
// assignments on a list of topologies, per cells for each group. A
// group's build samples its set, builds its skeleton and records the
// one plan all its cells replay (the radius-Radius Chebyshev near field
// plus the far field), so no cell records or waits on a plan. Cell c of
// group g assigns the set along the curve cell(g, c) returns, at its
// topologies' shared processor count, and keeps each topology's NFI and
// FFI ACD. The outputs are indexed g*per + c.
func priceSweep(ctx context.Context, workers int, groups []pricedGroup, per int, cell func(g, c int) (sfc.Curve, []topology.Topology, error)) ([]priced, error) {
	outs := make([]priced, len(groups)*per)
	err := groupSweep(ctx, workers, len(groups), per,
		func(sweep *obs.Span, g, workers int) (*keynav.Set, error) {
			gr := groups[g]
			set, err := sampleSet(sweep, gr.sampler, gr.p, gr.trial)
			if err != nil {
				return nil, err
			}
			spec := fmmmodel.NFIOptions{Radius: gr.p.Radius, Metric: geom.MetricChebyshev}.Spec()
			spec.Far = true
			set.Plan(sweep, spec, workers)
			return set, nil
		},
		func(sweep *obs.Span, i int, set *keynav.Set, inner int) error {
			g := i / per
			curve, topos, err := cell(g, i%per)
			if err != nil {
				return err
			}
			a, err := acd.Assign(sweep, set, curve, topos[0].P())
			if err != nil {
				return err
			}
			nfiOpts := fmmmodel.NFIOptions{Radius: groups[g].p.Radius, Metric: geom.MetricChebyshev, Workers: inner, Parent: sweep}
			nfi := fmmmodel.NFIMulti(a, topos, nfiOpts)
			ffi := fmmmodel.FFIMulti(a, topos, fmmmodel.FFIOptions{Workers: inner, Parent: sweep})
			o := priced{nfi: make([]float64, len(topos)), ffi: make([]float64, len(topos))}
			for t := range topos {
				o.nfi[t] = nfi[t].ACD()
				o.ffi[t] = ffi[t].Total().ACD()
			}
			outs[i] = o
			return nil
		})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// torusPerCurve builds one torus per processor-order curve at the
// params' processor count.
func torusPerCurve(p Params, curves []sfc.Curve) []topology.Topology {
	topos := make([]topology.Topology, len(curves))
	for i, c := range curves {
		topos[i] = topology.NewTorus(p.ProcOrder, c)
	}
	return topos
}
