package faultinject

import (
	"context"
	"errors"
	"testing"
	"time"

	"sfcacd/internal/obs"
)

func TestNilInjectorIsDisabled(t *testing.T) {
	var in *Injector
	if err := in.Check(nil, "anything"); err != nil {
		t.Errorf("nil injector injected: %v", err)
	}
	if err := in.CheckCtx(context.Background(), "anything"); err != nil {
		t.Errorf("nil injector injected via CheckCtx: %v", err)
	}
}

func TestUnconfiguredSiteNeverInjects(t *testing.T) {
	in := New(1)
	in.Enable("a", 1, Fault{})
	for i := 0; i < 100; i++ {
		if err := in.Check(nil, "b"); err != nil {
			t.Fatalf("unconfigured site injected: %v", err)
		}
	}
}

func TestEnableAlwaysInjects(t *testing.T) {
	in := New(1)
	in.Enable("disk.get", 1, Fault{})
	err := in.Check(nil, "disk.get")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("Check = %v, want ErrInjected", err)
	}
}

func TestEnableCustomError(t *testing.T) {
	want := errors.New("boom")
	in := New(1)
	in.Enable("s", 1, Fault{Err: want})
	if err := in.Check(nil, "s"); !errors.Is(err, want) {
		t.Fatalf("Check = %v, want %v", err, want)
	}
}

func TestEnableNInjectsExactly(t *testing.T) {
	in := New(1)
	in.EnableN("s", 3, Fault{})
	injected := 0
	for i := 0; i < 10; i++ {
		if in.Check(nil, "s") != nil {
			injected++
		}
	}
	if injected != 3 {
		t.Errorf("EnableN(3) injected %d times, want 3", injected)
	}
}

func TestDisable(t *testing.T) {
	in := New(1)
	in.Enable("s", 1, Fault{})
	in.Disable("s")
	if err := in.Check(nil, "s"); err != nil {
		t.Errorf("disabled site injected: %v", err)
	}
}

// TestDeterministicReplay pins the seeding contract: equal seeds give
// equal per-site decision sequences, different seeds give different
// ones, and a site's stream does not depend on draws at other sites.
func TestDeterministicReplay(t *testing.T) {
	pattern := func(in *Injector, site string, n int) []bool {
		out := make([]bool, n)
		for i := range out {
			out[i] = in.Check(nil, site) != nil
		}
		return out
	}

	a, b := New(42), New(42)
	a.Enable("x", 0.5, Fault{})
	b.Enable("x", 0.5, Fault{})
	// Interleave draws at an unrelated site in b only: x's stream must
	// not shift.
	b.Enable("noise", 0.5, Fault{})
	pa := make([]bool, 64)
	pb := make([]bool, 64)
	for i := range pa {
		pa[i] = a.Check(nil, "x") != nil
		b.Check(nil, "noise")
		pb[i] = b.Check(nil, "x") != nil
	}
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatalf("same-seed streams diverge at draw %d", i)
		}
	}

	c := New(43)
	c.Enable("x", 0.5, Fault{})
	if pc := pattern(c, "x", 64); equalBools(pa, pc) {
		t.Error("different seeds produced identical 64-draw patterns")
	}

	// Sanity: prob 0.5 injects some but not all of 64 draws.
	hits := 0
	for _, v := range pa {
		if v {
			hits++
		}
	}
	if hits == 0 || hits == 64 {
		t.Errorf("prob=0.5 injected %d/64 draws", hits)
	}
}

func equalBools(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestLatencyOnlyFault(t *testing.T) {
	in := New(1)
	in.Enable("slow", 1, Fault{Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := in.Check(nil, "slow"); err != nil {
		t.Fatalf("latency-only fault returned error: %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Errorf("Check returned after %v, want >= 20ms", d)
	}
}

func TestCheckCtxAbortsDelay(t *testing.T) {
	in := New(1)
	in.Enable("slow", 1, Fault{Delay: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.CheckCtx(ctx, "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CheckCtx = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 10*time.Second {
		t.Error("CheckCtx did not abort the injected delay")
	}
}

func TestObsCounters(t *testing.T) {
	in := New(7)
	in.EnableN("counted.site", 2, Fault{})
	siteBefore := obs.GetCounter("faultinject.counted.site").Value()
	totalBefore := obs.GetCounter("faultinject.injected").Value()
	for i := 0; i < 5; i++ {
		in.Check(nil, "counted.site")
	}
	if got := obs.GetCounter("faultinject.counted.site").Value() - siteBefore; got != 2 {
		t.Errorf("site counter delta = %d, want 2", got)
	}
	if got := obs.GetCounter("faultinject.injected").Value() - totalBefore; got != 2 {
		t.Errorf("total counter delta = %d, want 2", got)
	}
}

func TestParse(t *testing.T) {
	in, err := Parse("a=1,b=0.25:150ms", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := in.Check(nil, "a"); !errors.Is(err, ErrInjected) {
		t.Errorf("parsed always-on site a: Check = %v", err)
	}
	in.mu.Lock()
	b := in.sites["b"]
	in.mu.Unlock()
	if b == nil || b.prob != 0.25 || b.fault.Delay != 150*time.Millisecond {
		t.Errorf("parsed site b = %+v", b)
	}

	if in, err := Parse("", 9); in != nil || err != nil {
		t.Errorf("empty spec = (%v, %v), want disabled nil injector", in, err)
	}
	for _, bad := range []string{"noequals", "=1", "a=2", "a=-0.5", "a=0.5:nonsense", "a=x", "a=NaN", "serve.compute=nan", "a=+Inf", "a=1:-5ms"} {
		if _, err := Parse(bad, 9); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// FuzzParse holds the flag parser to its contract on arbitrary specs:
// it never panics, and every site of an accepted spec has a
// probability in [0,1] and a non-negative delay.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "a=1", "a=1,b=0.25:150ms", "resultcache.disk.get=0.1,serve.compute=1:250ms",
		"serve.compute=NaN", "a=0x1p-2", "a=1e-3:1h", "a=2", "=", ",", "a=0.5:-1s",
	} {
		f.Add(spec, uint64(1))
	}
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		in, err := Parse(spec, seed)
		if err != nil || in == nil {
			return
		}
		in.mu.Lock()
		defer in.mu.Unlock()
		for name, s := range in.sites {
			if !(s.prob >= 0 && s.prob <= 1) {
				t.Fatalf("Parse(%q) accepted site %q with probability %v", spec, name, s.prob)
			}
			if s.fault.Delay < 0 {
				t.Fatalf("Parse(%q) accepted site %q with delay %v", spec, name, s.fault.Delay)
			}
		}
	})
}
