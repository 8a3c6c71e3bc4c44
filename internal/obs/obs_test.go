package obs

import (
	"sync"
	"testing"
)

func TestCounterConcurrent(t *testing.T) {
	// Hammer one counter from many goroutines through every increment
	// path; the folded value must be exact. Run with -race to verify
	// the striping is data-race free.
	reg := NewRegistry()
	c := reg.GetCounter("test.concurrent")
	const goroutines = 16
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				switch i % 4 {
				case 0:
					c.Inc()
				case 1:
					c.Add(1)
				case 2:
					c.IncAt(g)
				default:
					c.IncAt(g*31 + i)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

func TestCounterHintsFold(t *testing.T) {
	var c Counter
	for hint := -3; hint < 40; hint++ {
		c.IncAt(hint)
		c.IncAt(hint)
	}
	if got := c.Value(); got != 2*43 {
		t.Fatalf("striped sum = %d, want %d", got, 2*43)
	}
}

func TestGauge(t *testing.T) {
	reg := NewRegistry()
	g := reg.GetGauge("test.gauge")
	g.Set(1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("Set/Value = %v, want 1.5", got)
	}
	g.Add(-0.5)
	if got := g.Value(); got != 1.0 {
		t.Fatalf("Add = %v, want 1.0", got)
	}
	g.SetMax(0.5) // below current: no-op
	if got := g.Value(); got != 1.0 {
		t.Fatalf("SetMax(0.5) = %v, want 1.0", got)
	}
	g.SetMax(7)
	if got := g.Value(); got != 7 {
		t.Fatalf("SetMax(7) = %v, want 7", got)
	}
}

func TestRegistryIdentityAndReset(t *testing.T) {
	reg := NewRegistry()
	a := reg.GetCounter("same")
	b := reg.GetCounter("same")
	if a != b {
		t.Fatal("GetCounter returned distinct instances for one name")
	}
	a.Add(5)
	reg.GetGauge("g").Set(3)
	reg.GetHistogram("h", []float64{1, 2}).Observe(1.5)
	reg.Reset()
	snap := reg.Snapshot()
	if snap.Counters["same"] != 0 || snap.Gauges["g"] != 0 || snap.Histograms["h"].Count != 0 {
		t.Fatalf("Reset left values: %+v", snap)
	}
	a.Inc() // instance stays live after Reset
	if got := reg.Snapshot().Counters["same"]; got != 1 {
		t.Fatalf("post-reset increment = %d, want 1", got)
	}
}

func TestRegistrySnapshot(t *testing.T) {
	reg := NewRegistry()
	reg.GetCounter("c1").Add(3)
	c2 := reg.GetCounter("c2")
	for i := 0; i < 4; i++ {
		c2.IncAt(9)
	}
	reg.GetGauge("g1").Set(2.25)
	snap := reg.Snapshot()
	if snap.Counters["c1"] != 3 || snap.Counters["c2"] != 4 {
		t.Fatalf("counters snapshot = %v", snap.Counters)
	}
	if snap.Gauges["g1"] != 2.25 {
		t.Fatalf("gauges snapshot = %v", snap.Gauges)
	}
}

func TestOnSnapshotHook(t *testing.T) {
	reg := NewRegistry()
	part := reg.GetCounter("part.a")
	total := reg.GetCounter("total")
	// Derived-rollup pattern: fold the per-part delta into the total on
	// every snapshot (as internal/sfc does for sfc.encode).
	var last uint64
	reg.OnSnapshot(func() {
		v := part.Value()
		if v < last {
			last = 0
		}
		total.Add(v - last)
		last = v
	})
	part.Add(7)
	if got := reg.Snapshot().Counters["total"]; got != 7 {
		t.Fatalf("total after first snapshot = %d, want 7", got)
	}
	// Repeated snapshots must not double-count.
	if got := reg.Snapshot().Counters["total"]; got != 7 {
		t.Fatalf("total after second snapshot = %d, want 7", got)
	}
	part.Add(5)
	if got := reg.Snapshot().Counters["total"]; got != 12 {
		t.Fatalf("total after increment = %d, want 12", got)
	}
	// Reset zeroes both; the hook restarts from zero.
	reg.Reset()
	part.Add(2)
	if got := reg.Snapshot().Counters["total"]; got != 2 {
		t.Fatalf("total after reset = %d, want 2", got)
	}
}
