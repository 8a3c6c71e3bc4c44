// Package faultinject is a small deterministic fault-injection layer
// for the serving path. Production code calls Check (or CheckCtx) at
// named sites — "resultcache.disk.get", "serve.compute", … — and an
// Injector configured for a site returns an injected error and/or adds
// injected latency there. Everything is deterministic: each site draws
// from its own internal/rng stream derived from (seed, site name), so
// a failing run replays exactly under the same seed and configuration,
// independent of goroutine scheduling at *other* sites.
//
// A nil *Injector is the disabled state: Check on it is a no-op, so
// production structs embed one without nil checks at call sites.
// Every injection increments "faultinject.injected" plus a per-site
// "faultinject.<site>" counter in internal/obs, making injected faults
// visible in /metrics and run manifests next to the degradation
// counters (serve.disk_errors etc.) they are expected to drive, and
// marks "fault.<site>" on the span the caller hands it (Check's parent,
// or the span CheckCtx's context carries), so a request whose slowness
// came from an injected fault shows the site in its trace.
package faultinject

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
)

// ErrInjected is the error injected when a fault spec does not name
// its own error. Callers distinguish injected failures from organic
// ones with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault describes what one injection does: sleep Delay (if nonzero),
// then return Err. A latency-only fault has Err == nil; an error-only
// fault has Delay == 0.
type Fault struct {
	// Err is returned by Check when the fault fires; nil injects
	// latency only.
	Err error
	// Delay is slept before returning (CheckCtx aborts the sleep when
	// the context ends first).
	Delay time.Duration
}

// site is one configured injection point.
type site struct {
	prob      float64 // injection probability per check when remaining < 0
	remaining int     // > 0: inject exactly this many more checks; 0: exhausted; < 0: use prob
	fault     Fault
	r         *rng.Rand    // per-site stream; used only for prob decisions
	injected  *obs.Counter // faultinject.<name>
}

// Injector decides per named site whether to inject a fault. Safe for
// concurrent use. The zero state of a nil *Injector never injects.
type Injector struct {
	seed  uint64
	mu    sync.Mutex
	sites map[string]*site
	total *obs.Counter
}

// New returns an Injector with no sites configured. Equal seeds give
// equal per-site decision streams regardless of configuration order.
func New(seed uint64) *Injector {
	return &Injector{
		seed:  seed,
		sites: make(map[string]*site),
		total: obs.GetCounter("faultinject.injected"),
	}
}

// siteSeed derives a per-site seed from the injector seed and the site
// name (FNV-1a), so each site's stream is independent of when the
// site was configured and of draws at other sites.
func siteSeed(seed uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ seed
}

func (in *Injector) newSite(name string) *site {
	return &site{
		remaining: -1,
		r:         rng.New(siteSeed(in.seed, name)),
		injected:  obs.GetCounter("faultinject." + name),
	}
}

// Enable arms a site: every Check there injects f with probability
// prob (1 means always). Reconfiguring a site keeps its rng stream.
func (in *Injector) Enable(name string, prob float64, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok {
		s = in.newSite(name)
		in.sites[name] = s
	}
	s.prob, s.remaining, s.fault = prob, -1, f
}

// EnableN arms a site to inject f on exactly the next n checks, then
// go quiet — the deterministic shape crash-safety tests want.
func (in *Injector) EnableN(name string, n int, f Fault) {
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok {
		s = in.newSite(name)
		in.sites[name] = s
	}
	s.prob, s.remaining, s.fault = 0, n, f
}

// Disable disarms a site.
func (in *Injector) Disable(name string) {
	in.mu.Lock()
	defer in.mu.Unlock()
	delete(in.sites, name)
}

// decide consumes one decision at the site and returns the fault to
// apply, if any, marking an injection under parent.
func (in *Injector) decide(parent *obs.Span, name string) (Fault, bool) {
	if in == nil {
		return Fault{}, false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s, ok := in.sites[name]
	if !ok {
		return Fault{}, false
	}
	switch {
	case s.remaining > 0:
		s.remaining--
	case s.remaining == 0:
		return Fault{}, false
	default: // probabilistic
		if s.r.Float64() >= s.prob {
			return Fault{}, false
		}
	}
	s.injected.Inc()
	in.total.Inc()
	parent.Mark("fault." + name)
	return s.fault, true
}

// fire applies f: the injected error defaults to a site-tagged
// ErrInjected when the fault does not carry its own.
func fire(name string, f Fault) error {
	if f.Err != nil {
		return f.Err
	}
	if f.Delay > 0 {
		return nil // latency-only fault
	}
	return fmt.Errorf("%w at %s", ErrInjected, name)
}

// Check consumes one decision at the named site: on injection it marks
// the fault under parent (nil marks nothing), sleeps the fault's delay
// and returns its error (nil for a latency-only fault). A nil Injector
// or unconfigured site returns nil without any work.
func (in *Injector) Check(parent *obs.Span, name string) error {
	f, ok := in.decide(parent, name)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		time.Sleep(f.Delay)
	}
	return fire(name, f)
}

// CheckCtx is Check under the span ctx carries (obs.SpanFrom), with a
// context-aware delay: if ctx ends before the injected latency elapses,
// it returns ctx's cause immediately.
func (in *Injector) CheckCtx(ctx context.Context, name string) error {
	f, ok := in.decide(obs.SpanFrom(ctx), name)
	if !ok {
		return nil
	}
	if f.Delay > 0 {
		t := time.NewTimer(f.Delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
	return fire(name, f)
}

// Parse builds an Injector from a comma-separated flag spec,
//
//	site=prob[:delay]
//
// e.g. "resultcache.disk.get=0.1,serve.compute=1:250ms" injects a
// read error on 10% of disk gets and 250ms of latency on every
// computation. A spec without a delay injects ErrInjected; a spec with
// a delay injects latency only (the fault's Err stays nil). prob must
// be in [0,1]; delay is a Go duration. An empty spec returns a
// disabled (nil) injector.
func Parse(spec string, seed uint64) (*Injector, error) {
	if spec == "" {
		return nil, nil
	}
	in := New(seed)
	for _, part := range strings.Split(spec, ",") {
		name, rest, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("faultinject: bad site spec %q (want site=prob[:delay])", part)
		}
		probStr, delayStr, hasDelay := strings.Cut(rest, ":")
		prob, err := strconv.ParseFloat(probStr, 64)
		// The positive range test also rejects NaN, which every
		// comparison fails.
		if err != nil || !(prob >= 0 && prob <= 1) {
			return nil, fmt.Errorf("faultinject: bad probability in %q (want 0..1)", part)
		}
		var f Fault
		if hasDelay {
			d, err := time.ParseDuration(delayStr)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("faultinject: bad delay in %q: %v", part, err)
			}
			f.Delay = d
		}
		in.Enable(name, prob, f)
	}
	return in, nil
}
