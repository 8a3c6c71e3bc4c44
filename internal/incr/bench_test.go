package incr

import (
	"math"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// ballistic records a drift of n particles over ticks steps on a
// 2^order grid and returns its ticks+1 configurations: particles start
// uniformly placed within distinct uniformly sampled cells, move at
// 0.5-1.5 x step cells per tick on uniform headings and reflect off the
// walls. Positions project to cells in identity order, one particle per
// cell: a particle whose target cell is taken keeps its cell.
func ballistic(b *testing.B, n int, order uint, ticks int, step float64, seed uint64) [][]geom.Point {
	b.Helper()
	r := rng.New(seed)
	cells, err := dist.SampleUnique(dist.Uniform, r, order, n)
	if err != nil {
		b.Fatal(err)
	}
	side := geom.Side(order)
	fside := float64(side)
	x, y := make([]float64, n), make([]float64, n)
	vx, vy := make([]float64, n), make([]float64, n)
	occ := make([]bool, geom.Cells(order))
	for i, c := range cells {
		x[i] = float64(c.X) + r.Float64()
		y[i] = float64(c.Y) + r.Float64()
		speed := step * (0.5 + r.Float64())
		theta := 2 * math.Pi * r.Float64()
		vx[i], vy[i] = speed*math.Cos(theta), speed*math.Sin(theta)
		occ[geom.CellID(c, side)] = true
	}
	reflect := func(p, v *float64) {
		*p += *v
		if *p < 0 {
			*p, *v = -*p, -*v
		}
		if *p >= fside {
			*p, *v = math.Nextafter(2*fside-*p, 0), -*v
		}
	}
	cfgs := [][]geom.Point{append([]geom.Point(nil), cells...)}
	for t := 0; t < ticks; t++ {
		for i := range cells {
			reflect(&x[i], &vx[i])
			reflect(&y[i], &vy[i])
			q := geom.Pt(min(uint32(x[i]), side-1), min(uint32(y[i]), side-1))
			if q == cells[i] || occ[geom.CellID(q, side)] {
				continue
			}
			occ[geom.CellID(cells[i], side)] = false
			occ[geom.CellID(q, side)] = true
			cells[i] = q
		}
		cfgs = append(cfgs, append([]geom.Point(nil), cells...))
	}
	return cfgs
}

// BenchmarkTick times one maintained tick and the read of its torus's
// accumulator at the shape of perfbench's drift workload: 15,625
// particles on a 256 x 256 grid, p = 4,096, r = 1, Chebyshev, one torus
// tracked per state, over a recorded ballistic drift at 0.02 cells per
// tick played forwards and back, for each paper curve.
func BenchmarkTick(b *testing.B) {
	const n, order, procOrder, ticks = 15625, 8, 6, 256
	cfgs := ballistic(b, n, order, ticks, 0.02, 2013)
	for _, curve := range sfc.All() {
		b.Run(curve.Name(), func(b *testing.B) {
			cfg := Config{Curve: curve, Order: order, P: 1 << (2 * procOrder), Radius: 1, Metric: geom.MetricChebyshev}
			s, err := NewState(cfg, cfgs[0])
			if err != nil {
				b.Fatal(err)
			}
			dt := topology.NewDistanceTable(topology.NewTorus(procOrder, curve))
			s.ACD(dt)
			b.ReportAllocs()
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				// Step k+1 of the playback 1, 2, ..., ticks, ticks-1, ..., 0,
				// 1, ...: every step is one recorded tick.
				i := (k + 1) % (2 * ticks)
				if i > ticks {
					i = 2*ticks - i
				}
				if _, err := s.Tick(cfgs[i]); err != nil {
					b.Fatal(err)
				}
				s.ACD(dt)
			}
		})
	}
}
