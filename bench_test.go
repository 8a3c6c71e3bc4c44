// Benchmarks regenerating every table and figure of the paper's
// evaluation, one per experiment, at scaled-down parameters so the
// suite completes quickly. Run the paper-scale versions with
// cmd/acdbench -full; EXPERIMENTS.md records those results.
package sfcacd_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sfcacd"
	"sfcacd/internal/acd"
	"sfcacd/internal/experiments"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/keynav"
	"sfcacd/internal/serve"
	"sfcacd/internal/topology"
)

// benchParams is the shared scaled-down configuration.
var benchParams = experiments.Params{
	Particles: 4000,
	Order:     8,
	ProcOrder: 4,
	Radius:    1,
	Trials:    1,
	Seed:      2013,
}

// BenchmarkFig1CurveGallery measures curve enumeration — the work
// behind Figure 1's renderings (16x16 paths of the four curves).
func BenchmarkFig1CurveGallery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range sfcacd.Curves() {
			for d := uint64(0); d < 256; d++ {
				p := c.Point(4, d)
				if c.Index(4, p) != d {
					b.Fatal("round trip failed")
				}
			}
		}
	}
}

// BenchmarkFig2Distributions measures drawing the sample clouds of
// Figure 2 from each of the three distributions.
func BenchmarkFig2Distributions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := sfcacd.NewRand(uint64(i))
		for _, s := range sfcacd.Distributions() {
			if _, err := sfcacd.SampleUnique(s, r, 8, 1000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3ParticleOrdering measures ordering an exponential
// sample along each curve, the operation Figure 3 visualizes.
func BenchmarkFig3ParticleOrdering(b *testing.B) {
	r := sfcacd.NewRand(3)
	pts, err := sfcacd.SampleUnique(sfcacd.Exponential, r, 10, 10000)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sfcacd.Curves() {
			if _, err := sfcacd.Assign(pts, c, 10, 64); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig5aANNS regenerates Figure 5(a): classic ANNS (radius 1)
// across resolutions for all four curves.
func BenchmarkFig5aANNS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(context.Background(), 1, 6, 1, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5bANNSLargeRadius regenerates Figure 5(b): the
// generalized stretch at radius 6.
func BenchmarkFig5bANNSLargeRadius(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig5(context.Background(), 1, 6, 6, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1NFICombos regenerates Table I: the 16 particle x
// processor SFC combinations under the near-field model, for all
// three distributions.
func BenchmarkTable1NFICombos(b *testing.B) {
	// RunTable12 computes both tables in one pass; Table II's cost is
	// benchmarked separately below via the far-field-only path.
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunTable12(context.Background(), benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2FFICombos isolates the far-field (Table II) model:
// one assignment evaluated against the four processor-order tori.
func BenchmarkTable2FFICombos(b *testing.B) {
	r := sfcacd.NewRand(5)
	pts, err := sfcacd.SampleUnique(sfcacd.Uniform, r, benchParams.Order, benchParams.Particles)
	if err != nil {
		b.Fatal(err)
	}
	a, err := sfcacd.Assign(pts, sfcacd.Hilbert, benchParams.Order, benchParams.P())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, c := range sfcacd.Curves() {
			torus := sfcacd.NewTorus(benchParams.ProcOrder, c)
			sfcacd.FFI(a, torus, sfcacd.FFIOptions{})
		}
	}
}

// BenchmarkFig6Topologies regenerates Figure 6: NFI and FFI across the
// six topologies with the same SFC in both roles.
func BenchmarkFig6Topologies(b *testing.B) {
	p := benchParams
	p.Radius = 4
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig6(context.Background(), p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7ProcessorSweep regenerates Figure 7: ACD versus
// processor count on the torus.
func BenchmarkFig7ProcessorSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunFig7(context.Background(), benchParams, []uint{2, 3, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRadiusSweep regenerates the §VI-C radius study.
func BenchmarkRadiusSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunRadiusSweep(context.Background(), benchParams, []int{1, 2, 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPrimitives regenerates the §VII primitive table.
func BenchmarkPrimitives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.RunPrimitives(nil, 4, 0)
	}
}

// BenchmarkContention regenerates the contention extension study.
func BenchmarkContention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunContention(context.Background(), benchParams); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBodyFMM measures the fast multipole solver on 10,000
// particles — the application side of the paper's model.
func BenchmarkNBodyFMM(b *testing.B) {
	sys := randomNBody(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sfcacd.SolveFMM(sys, sfcacd.FMMSolverOptions{Terms: 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNBodyDirect measures the O(n^2) baseline (smaller n: the
// quadratic cost dominates the suite otherwise — compare ns/particle).
func BenchmarkNBodyDirect(b *testing.B) {
	sys := randomNBody(4000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sfcacd.SolveDirect(sys, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func randomNBody(n int) sfcacd.NBodySystem {
	r := sfcacd.NewRand(9)
	sys := sfcacd.NBodySystem{Pos: make([]complex128, n), Q: make([]float64, n)}
	for i := 0; i < n; i++ {
		sys.Pos[i] = complex(r.Float64(), r.Float64())
		sys.Q[i] = 1
		if i%2 == 1 {
			sys.Q[i] = -1
		}
	}
	return sys
}

// BenchmarkDynamicTimesteps regenerates the dynamic reordering study
// (§VI-A's "no incentive to reorder between iterations" observation).
func BenchmarkDynamicTimesteps(b *testing.B) {
	p := benchParams
	p.Particles = 2000
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunDynamic(context.Background(), p, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThreeDValidation regenerates the 3D extension study
// (future-work item ii).
func BenchmarkThreeDValidation(b *testing.B) {
	p := experiments.ThreeDDefault
	p.Particles = 3000
	p.Order = 5
	p.ANNSOrder = 3
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunThreeD(context.Background(), p, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHilbertIndex measures the hot curve-indexing path used by
// every experiment.
func BenchmarkHilbertIndex(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p := sfcacd.Pt(uint32(i)&1023, uint32(i>>10)&1023)
		sfcacd.Hilbert.Index(10, p)
	}
}

// BenchmarkTorusDistance measures the hot distance path.
func BenchmarkTorusDistance(b *testing.B) {
	torus := sfcacd.NewTorus(8, sfcacd.Hilbert)
	p := torus.P()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		torus.Distance(i%p, (i*7)%p)
	}
}

// --- Communication matrices and the priced path ---

// commMatFixture builds one scaled assignment, its labelling of the
// particle set's key skeleton, and the four processor-order tori the
// tables sweep.
func commMatFixture(b *testing.B) (*acd.Assignment, *keynav.Index, []topology.Topology) {
	b.Helper()
	r := sfcacd.NewRand(7)
	pts, err := sfcacd.SampleUnique(sfcacd.Uniform, r, benchParams.Order, benchParams.Particles)
	if err != nil {
		b.Fatal(err)
	}
	a, err := sfcacd.Assign(pts, sfcacd.Hilbert, benchParams.Order, benchParams.P())
	if err != nil {
		b.Fatal(err)
	}
	var topos []topology.Topology
	for _, c := range sfcacd.Curves() {
		topos = append(topos, topology.NewTorus(benchParams.ProcOrder, c))
	}
	return a, a.KeyIndex(), topos
}

// BenchmarkCommMatBuild measures aggregating the near- and far-field
// event streams into communication matrices — the one-traversal side of
// the contraction split.
func BenchmarkCommMatBuild(b *testing.B) {
	a, ix, _ := commMatFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmmmodel.NFIMatrix(a, fmmmodel.NFIOptions{Radius: benchParams.Radius})
		fmmmodel.FFIMatricesFromIndex(ix, a.P, 0)
	}
}

// BenchmarkCommMatContract measures the per-topology side: contracting
// prebuilt matrices against the four tori, one single-goroutine
// contraction per matrix.
func BenchmarkCommMatContract(b *testing.B) {
	a, ix, topos := commMatFixture(b)
	nfi := fmmmodel.NFIMatrix(a, fmmmodel.NFIOptions{Radius: benchParams.Radius})
	ffi := fmmmodel.FFIMatricesFromIndex(ix, a.P, 0)
	tables := make([]*topology.DistanceTable, len(topos))
	for i, topo := range topos {
		tables[i] = topology.NewDistanceTable(topo)
	}
	accs := func() []*acd.Accumulator {
		out := make([]*acd.Accumulator, len(tables))
		for i := range out {
			out[i] = new(acd.Accumulator)
		}
		return out
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nfi.ContractTableMultiSym(tables, accs(), 1)
		ffi.Interpolation.ContractTableMulti(tables, accs(), 1)
		ffi.InteractionList.ContractTableMultiSym(tables, accs(), 1)
	}
}

// BenchmarkTable12Priced measures the multi-topology accumulation at
// the heart of Tables I/II: one replay of the near- and far-field
// streams priced on all four processor-order tori.
func BenchmarkTable12Priced(b *testing.B) {
	a, _, topos := commMatFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fmmmodel.NFIMulti(a, topos, fmmmodel.NFIOptions{Radius: benchParams.Radius})
		fmmmodel.FFIMulti(a, topos, fmmmodel.FFIOptions{})
	}
}

// BenchmarkServeCacheHit measures answering a warm request through the
// serving layer: key derivation, cache lookup, and entry replay. The
// acceptance target is well under a millisecond for the scaled
// table12 result. It times Server.Do alone and leaves out the HTTP
// layer a daemon hit also pays for: reading and merging the body, the
// request trace (its root span, the goroutine binding, the trace
// store's offer) and writing the response. BenchmarkServeHandlerHit
// times those too.
func BenchmarkServeCacheHit(b *testing.B) {
	s := serve.New(serve.Options{Workers: 2})
	if _, err := s.Do(context.Background(), "table12", benchParams); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := s.Do(context.Background(), "table12", benchParams)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != serve.StatusHit {
			b.Fatalf("status %q, want hit", resp.Status)
		}
	}
}

// BenchmarkServeHandlerHit measures a warm table12 request through the
// daemon's handler (serve.NewHandler), everything acdserverd does for a
// cache hit but the socket: the parameter body read and merged over
// the preset, the request trace, Server.Do's hit, and the entry's
// stored response written with its headers.
func BenchmarkServeHandlerHit(b *testing.B) {
	h := serve.NewHandler(serve.New(serve.Options{Workers: 2}))
	body, err := json.Marshal(benchParams)
	if err != nil {
		b.Fatal(err)
	}
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/experiments/table12", bytes.NewReader(body)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK {
		b.Fatalf("warming: status %d: %s", rec.Code, rec.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := post()
		if cache := rec.Header().Get("X-Cache"); rec.Code != http.StatusOK || cache != string(serve.StatusHit) {
			b.Fatalf("status %d, X-Cache %q; want a 200 hit", rec.Code, cache)
		}
	}
}

// BenchmarkServeColdMiss measures the full compute-and-cache path by
// varying the seed so every iteration is a distinct content address.
func BenchmarkServeColdMiss(b *testing.B) {
	s := serve.New(serve.Options{Workers: 2})
	p := benchParams
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Seed = uint64(i) + 1
		resp, err := s.Do(context.Background(), "table12", p)
		if err != nil {
			b.Fatal(err)
		}
		if resp.Status != serve.StatusMiss {
			b.Fatalf("status %q, want miss", resp.Status)
		}
	}
}
