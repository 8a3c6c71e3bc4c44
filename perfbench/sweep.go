package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/dist"
	"sfcacd/internal/experiments"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// sweepWorkload is a Tables I-II sweep: 3 distributions x trials x 4
// particle-order curves, each cell 15,625 particles priced on the 4
// curve-placed tori of p = 4,096 processors at radius 1.
type sweepWorkload struct {
	name   string
	order  uint
	trials int
	// digest is the SHA-256 of the rendered tables at defaultSeed.
	digest string
	// overheadPairs is how many untraced/traced pipeline sweep pairs
	// the traced run times to measure tracing overhead (0 skips it).
	overheadPairs int
}

var (
	// table12 is the scaled reproduction: a 256x256 grid, where the
	// communication-matrix build dominates.
	table12 = sweepWorkload{
		name:          "table12",
		order:         8,
		trials:        3,
		digest:        "7a3d2a59f2217ecb3c211f3e3dd4a61026fc453f367a1f3e0acb273dba613cec",
		overheadPairs: 5,
	}
	// sparse12 puts the same particles on a 4096x4096 grid (0.1%
	// occupancy), where structures sized by the grid dominate. It runs
	// one trial per distribution (12 cells): its sweeps vary by about 7%
	// from one to the next, so a run needs the ~16 sweeps this allows to
	// hold its median steady.
	sparse12 = sweepWorkload{
		name:   "sparse12",
		order:  12,
		trials: 1,
		digest: "5d55e19e542c72e1dc5002ce8497737133666da2098c71a04954577ad3b2b3ef",
	}
)

// params returns the sweep's parameters; the seed drives all sampling.
func (w sweepWorkload) params(seed int64) experiments.Params {
	return experiments.Params{Particles: 15625, Order: w.order, ProcOrder: 6, Radius: 1, Trials: w.trials, Seed: uint64(seed)}
}

// sweep runs one sweep through experiments.RunTable12 and returns the
// rendered tables and the call's wall time.
func sweep(p experiments.Params) ([]byte, time.Duration, error) {
	start := time.Now()
	res, err := experiments.RunTable12(context.Background(), p)
	d := time.Since(start)
	if err != nil {
		return nil, d, err
	}
	var b bytes.Buffer
	if err := experiments.Table12Set(res).Render(&b); err != nil {
		return nil, d, err
	}
	return b.Bytes(), d, nil
}

// checkDigest checks rendered tables against the committed digest when
// the run uses the default seed.
func (w sweepWorkload) checkDigest(r *report, seed int64, out []byte) {
	sum := sha256.Sum256(out)
	got := hex.EncodeToString(sum[:])
	fmt.Fprintf(r.stderr, "perfbench: %s tables sha256 %s (seed %d)\n", w.name, got, seed)
	if seed != defaultSeed {
		return
	}
	if got != w.digest {
		r.fail("%s tables digest %s, want %s", w.name, got, w.digest)
		return
	}
	r.op(true)
}

// checkSame counts one sweep, failed when it errs or its tables differ
// from the first sweep's.
func (w sweepWorkload) checkSame(r *report, out, first []byte, err error) {
	switch {
	case err != nil:
		r.fail("%s sweep: %v", w.name, err)
	case !bytes.Equal(out, first):
		r.fail("%s sweep rendered different tables than the first sweep", w.name)
	default:
		r.op(true)
	}
}

// run measures the end-to-end metrics. Set-up is the process's first,
// cold sweep (empty allocator pools, heap not yet grown): the time a
// one-shot command-line run pays on top of a warm sweep. It can happen
// once per process, so setup_s is one (calibrated) sample per run.
func (w sweepWorkload) run(cfg config, r *report) error {
	p := w.params(cfg.seed)
	cal := newCalibrator()
	var first []byte
	var err error
	cold := cal.time(func() { first, _, err = sweep(p) }) / float64(time.Second)
	if err != nil {
		return err
	}
	w.checkDigest(r, cfg.seed, first)
	var raw, times []float64
	before := cal.run()
	start := time.Now()
	for time.Since(start) < cfg.seconds {
		out, d, err := sweep(p)
		after := cal.run()
		w.checkSame(r, out, first, err)
		if err == nil {
			raw = append(raw, ms(d))
			times = append(times, calibrated(d, (before+after)/2)/float64(time.Millisecond))
		}
		before = after
	}
	if len(times) == 0 {
		return fmt.Errorf("no sweep completed")
	}
	rss := peakRSSMiB()
	r.set("setup_s", cold)
	r.set("op_ms_p50", median(times))
	r.set("ops_per_s", 1000*float64(len(times))/sum(times))
	r.set("peak_rss_mib", rss)
	r.note("setup_s calibrated", cold, "s", 1)
	r.note("sweep_s", median(raw)/1000, "s", len(raw))
	r.note("sweep_s calibrated", median(times)/1000, "s", len(times))
	r.note("peak_rss_mib", rss, "MiB", 1)
	r.note("fail_frac", float64(r.failed)/float64(r.attempted), "1", int(r.attempted))
	return nil
}

// trace measures the per-layer metrics:
//   - parallel efficiency and bytes allocated per sweep, through
//     RunTable12 at the default GOMAXPROCS and at GOMAXPROCS=1;
//   - tracing overhead, as interleaved pairs of the pipeline sweep
//     below with the tracer off and on;
//   - the per-layer breakdown: one traced pipeline sweep that calls
//     each layer in turn for every cell, on the default path and again
//     on the key-space path, checking that both price every cell alike.
func (w sweepWorkload) trace(cfg config, r *report) error {
	p := w.params(cfg.seed)
	first, _, err := sweep(p)
	if err != nil {
		return err
	}
	w.checkDigest(r, cfg.seed, first)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, par, err := sweep(p)
	runtime.ReadMemStats(&after)
	w.checkSame(r, out, first, err)
	procs := runtime.GOMAXPROCS(1)
	out, ser, err := sweep(p)
	runtime.GOMAXPROCS(procs)
	w.checkSame(r, out, first, err)
	r.set("experiments.parallel_eff", ser.Seconds()/(float64(procs)*par.Seconds()))
	r.set("mem.alloc_mib_per_sweep", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))

	in := newSweepInputs(p)
	if w.overheadPairs > 0 {
		// Each pair runs both sides back to back, alternating which goes
		// first; the overhead is the median of the pairs' ratios.
		var ratios []float64
		for i := 0; i < w.overheadPairs; i++ {
			var d [2]time.Duration // untraced, traced
			for _, traced := range [2]bool{i%2 == 1, i%2 == 0} {
				var tr *tracer
				if traced {
					tr = newTracer()
				}
				start := time.Now()
				if _, err := in.run(tr, false, r); err != nil {
					return err
				}
				if traced {
					d[1] = time.Since(start)
				} else {
					d[0] = time.Since(start)
				}
			}
			ratios = append(ratios, float64(d[1])/float64(d[0])-1)
		}
		r.set("trace.overhead_frac", median(ratios))
	}

	c, err := in.run(cfg.tr, true, r)
	if err != nil {
		return err
	}
	tot := layerTotals(cfg.tr.spans)
	// layer reports the summed self time of the named spans (by default
	// the span named like the metric) as metric_ms and metric_cpu_ms.
	layer := func(metric string, spans ...string) selfTime {
		if len(spans) == 0 {
			spans = []string{metric}
		}
		var t selfTime
		for _, s := range spans {
			t.Wall += tot[s].Wall
			t.CPU += tot[s].CPU
		}
		r.set(metric+"_ms", ms(t.Wall))
		r.set(metric+"_cpu_ms", ms(t.CPU))
		return t
	}
	layer("dist.sample")
	order := layer("sfc.order")
	layer("acd.assign")
	ix := layer("keynav.build")
	layer("fmmmodel.nfi")
	ffi := layer("fmmmodel.ffi")
	bnfi := layer("commmat.build_nfi")
	bffi := layer("commmat.build_ffi")
	contract := layer("commmat.contract", "commmat.contract.nfi", "commmat.contract.ffi")
	r.set("fmmmodel.ffi_gap_ms", ms(ffi.Wall-ix.Wall-bffi.Wall-tot["commmat.contract.ffi"].Wall))
	r.set("sfc.order_ns_per_point", float64(order.Wall)/float64(c.points))
	r.set("commmat.events", float64(c.events))
	r.set("commmat.pairs", float64(c.pairs))
	r.set("commmat.dedup_ratio", float64(c.events)/float64(c.pairs))
	r.set("commmat.build_ns_per_event", float64(bnfi.Wall+bffi.Wall)/float64(c.events))
	r.set("commmat.contract_ns_per_pair", float64(contract.Wall)/float64(c.pairs))
	r.set("topology.distance_queries", float64(c.queries))
	checkAttribution(cfg.tr, r)
	return nil
}

// checkAttribution reports the share of the traced wall time no layer
// span covers, and fails the run when the layers' self times miss the
// wall time by more than the 5% tracing budget.
func checkAttribution(tr *tracer, r *report) {
	u := unattributed(tr.spans)
	r.set("trace.unattributed_frac", u)
	if u > 0.05 {
		r.fail("layer self times cover only %.1f%% of the traced wall time", 100*(1-u))
	} else {
		r.op(true)
	}
}

// sweepInputs are the fixed inputs of the pipeline sweep.
type sweepInputs struct {
	p       experiments.Params
	curves  []sfc.Curve
	topos   []topology.Topology
	dts     []*topology.DistanceTable
	workers int
}

func newSweepInputs(p experiments.Params) *sweepInputs {
	in := &sweepInputs{p: p, curves: sfc.All(), workers: runtime.GOMAXPROCS(0)}
	for _, c := range in.curves {
		t := topology.NewTorus(p.ProcOrder, c)
		in.topos = append(in.topos, t)
		in.dts = append(in.dts, topology.NewDistanceTable(t))
	}
	return in
}

// groupRands returns the sampling generator of every (distribution,
// trial) group, in sweep order: group g samples distribution
// dist.All()[g/Trials].
func groupRands(p experiments.Params) []*rng.Rand {
	src := rng.New(p.Seed)
	out := make([]*rng.Rand, len(dist.All())*p.Trials)
	for i := range out {
		out[i] = src.Split()
	}
	return out
}

// sampleGroup draws group g's particle set.
func sampleGroup(p experiments.Params, g int, r *rng.Rand) ([]geom.Point, error) {
	return dist.SampleUnique(dist.All()[g/p.Trials], r, p.Order, p.Particles)
}

// breakdownCounts are the work counts of one breakdown sweep.
type breakdownCounts struct {
	points        int
	events, pairs uint64
	queries       uint64
}

// run executes the sweep's cells in order on the calling goroutine,
// recording one span per layer call under a root "sweep" span. With
// breakdown set, every cell is also priced on the key-space path and
// compared with the default path.
func (in *sweepInputs) run(tr *tracer, breakdown bool, r *report) (breakdownCounts, error) {
	var c breakdownCounts
	p := in.p
	root := tr.begin("sweep")
	for g, gr := range groupRands(p) {
		var pts []geom.Point
		var err error
		tr.timed("dist.sample", func() { pts, err = sampleGroup(p, g, gr) })
		if err != nil {
			return c, err
		}
		for _, curve := range in.curves {
			if err := in.cell(tr, pts, curve, breakdown, r, &c); err != nil {
				return c, err
			}
		}
	}
	tr.end(root)
	return c, nil
}

// cell prices one particle-order curve on every torus.
func (in *sweepInputs) cell(tr *tracer, pts []geom.Point, curve sfc.Curve, breakdown bool, r *report, c *breakdownCounts) error {
	p := in.p
	var sorted []geom.Point
	tr.timed("sfc.order", func() {
		perm, _ := sfc.SortPointsKeys(curve, p.Order, pts)
		sorted = make([]geom.Point, len(perm))
		for i, j := range perm {
			sorted[i] = pts[j]
		}
	})
	c.points += len(pts)
	var a *acd.Assignment
	var err error
	tr.timed("acd.assign", func() { a, err = acd.FromSorted(sorted, p.Order, p.P()) })
	if err != nil {
		return err
	}
	nfiOpts := fmmmodel.NFIOptions{Radius: p.Radius, Metric: geom.MetricChebyshev}
	var nfi []acd.Accumulator
	var ffi []fmmmodel.FFIResult
	tr.timed("fmmmodel.nfi", func() { nfi = fmmmodel.NFIMulti(a, in.topos, nfiOpts) })
	tr.timed("fmmmodel.ffi", func() { ffi = fmmmodel.FFIMulti(a, in.topos, fmmmodel.FFIOptions{}) })
	a.Release()
	if !breakdown {
		return nil
	}

	// The key-space path runs on a fresh assignment, so the index it
	// builds lazily is paid inside keynav.build and not shared with the
	// default path above.
	var b *acd.Assignment
	tr.timed("acd.assign.keypath", func() { b, err = acd.FromSorted(sorted, p.Order, p.P()) })
	if err != nil {
		return err
	}
	defer b.Release()
	var ix *keynav.Index
	tr.timed("keynav.build", func() { ix = b.KeyIndex() })
	var m *commmat.Matrix
	tr.timed("commmat.build_nfi", func() { m = fmmmodel.NFIMatrix(b, nfiOpts) })
	var ms fmmmodel.FFIMatrices
	tr.timed("commmat.build_ffi", func() { ms = fmmmodel.FFIMatricesFromIndex(ix, p.P(), 0) })
	q0 := distanceQueries()
	nfiK := make([]acd.Accumulator, len(in.topos))
	ptrs := make([]*acd.Accumulator, len(in.topos))
	for t := range nfiK {
		ptrs[t] = &nfiK[t]
	}
	tr.timed("commmat.contract.nfi", func() { m.ContractTableMultiSym(in.dts, ptrs, in.workers) })
	var ffiK []fmmmodel.FFIResult
	tr.timed("commmat.contract.ffi", func() { ffiK = ms.ContractAll(in.topos, in.workers) })
	c.queries += distanceQueries() - q0
	for _, mm := range []*commmat.Matrix{m, ms.Interpolation, ms.InteractionList} {
		c.events += mm.Events()
		c.pairs += uint64(mm.Pairs())
	}
	for t := range in.topos {
		if nfi[t] != nfiK[t] || ffi[t].Total() != ffiK[t].Total() {
			r.fail("curve %s on torus %d: default path NFI %v FFI %v, key path NFI %v FFI %v",
				curve.Name(), t, nfi[t], ffi[t].Total(), nfiK[t], ffiK[t].Total())
		} else {
			r.op(true)
		}
	}
	return nil
}

// distanceQueries reads the topology layer's distance-query counters.
func distanceQueries() uint64 {
	return obs.GetCounter("topology.distance.analytic").Value() + obs.GetCounter("topology.distance.bfs").Value()
}
