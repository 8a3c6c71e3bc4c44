package experiments

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkTable12Sweep measures the full Tables I-II sweep at a small
// scale under different worker counts, on a dense shape (2,000
// particles on 128x128) and a sparse one (2,000 on 2048x2048, one
// trial), whose far field is mostly parents with a single child; on a
// multi-core runner the workers=4 case should approach a linear
// speedup over workers=1.
func BenchmarkTable12Sweep(b *testing.B) {
	for _, shape := range []struct {
		name   string
		order  uint
		trials int
	}{{"dense", 7, 2}, {"sparse", 11, 1}} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				p := Params{
					Particles: 2000, Order: shape.order, ProcOrder: 3,
					Radius: 1, Trials: shape.trials, Seed: 2013, Workers: workers,
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := RunTable12(context.Background(), p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
