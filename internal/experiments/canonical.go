package experiments

import (
	"fmt"

	"sfcacd/internal/dist"
)

// ResultSchemaVersion identifies the result encoding the serving layer
// caches. It participates in every cache key, so bumping it invalidates
// all previously cached results. Bump whenever a result struct's JSON
// layout changes or a runner's output changes for equal Params.
const ResultSchemaVersion = "sfcacd/results/v1"

// CanonicalKey returns the canonical cache identity of p: a stable,
// self-describing encoding whose bytes never change for equal
// parameter values. The field order is fixed by this function, not by
// the struct layout, so reordering Params fields cannot silently
// change cache keys; TestCanonicalKeyPinned pins the exact bytes and
// TestCanonicalKeyCoversParams fails when Params gains a field this
// encoding does not account for.
//
// Workers is deliberately excluded: results are identical for any
// worker count (a documented invariant, enforced by the differential
// tests), so runs that differ only in it share one cache entry.
// Distribution is included — it changes the sampled particles —
// but only when non-uniform, so every key minted before the knob
// existed stays valid; aliases normalize through dist.ByName first, so
// "exp" and "exponential" share a key.
func (p Params) CanonicalKey() string {
	key := fmt.Sprintf("params/v1:n=%d,k=%d,po=%d,r=%d,t=%d,s=%d",
		p.Particles, p.Order, p.ProcOrder, p.Radius, p.Trials, p.Seed)
	if s := p.sampler(); s != dist.Uniform {
		key += ",d=" + s.Name()
	}
	return key
}
