package experiments

import (
	"reflect"
	"testing"
)

func withDist(p Params, d string) Params {
	p.Distribution = d
	return p
}

// TestCanonicalKeyPinned pins the exact canonical encoding. These
// strings feed the content-addressed result cache: changing them
// invalidates every stored entry, so any edit here must be deliberate
// and must bump ResultSchemaVersion reasoning in canonical.go.
func TestCanonicalKeyPinned(t *testing.T) {
	cases := []struct {
		name string
		p    Params
		want string
	}{
		{"table12_scaled", Table12Paper.Scale(2), "params/v1:n=15625,k=8,po=6,r=1,t=3,s=2013"},
		{"table12_paper", Table12Paper, "params/v1:n=250000,k=10,po=8,r=1,t=3,s=2013"},
		{"fig6_paper", Fig6Paper, "params/v1:n=1000000,k=12,po=8,r=4,t=1,s=2013"},
		{"zero", Params{}, "params/v1:n=0,k=0,po=0,r=0,t=0,s=0"},
		{"uniform_explicit", withDist(Table12Paper, "uniform"), "params/v1:n=250000,k=10,po=8,r=1,t=3,s=2013"},
		{"normal", withDist(Table12Paper, "normal"), "params/v1:n=250000,k=10,po=8,r=1,t=3,s=2013,d=normal"},
		{"exp_alias", withDist(Table12Paper, "exp"), "params/v1:n=250000,k=10,po=8,r=1,t=3,s=2013,d=exponential"},
	}
	for _, tc := range cases {
		if got := tc.p.CanonicalKey(); got != tc.want {
			t.Errorf("%s: CanonicalKey() = %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCanonicalKeyIgnoresWorkers asserts the documented invariant that
// Workers does not participate in the key: results are worker-count
// invariant, so the same content address must serve any worker setting.
func TestCanonicalKeyIgnoresWorkers(t *testing.T) {
	a := Table12Paper
	b := Table12Paper
	b.Workers = 7
	if a.CanonicalKey() != b.CanonicalKey() {
		t.Errorf("Workers changed the canonical key: %q vs %q", a.CanonicalKey(), b.CanonicalKey())
	}
}

// TestCanonicalKeyCoversParams fails when a field is added to Params
// without a decision about the canonical encoding. A new field must
// either join CanonicalKey (and the pinned strings above must change,
// invalidating old cache entries) or be excluded deliberately like
// Workers — then bump the expected count here with a comment.
func TestCanonicalKeyCoversParams(t *testing.T) {
	// 8 = Particles, Order, ProcOrder, Radius, Trials, Seed,
	// Distribution (non-uniform only) in the key, plus Workers
	// (excluded: results are invariant to worker count).
	const known = 8
	if got := reflect.TypeOf(Params{}).NumField(); got != known {
		t.Fatalf("Params has %d fields, CanonicalKey audited %d; "+
			"decide whether the new field is result-affecting and update CanonicalKey", got, known)
	}
}

// TestCanonicalKeySeparatesParams spot-checks that each key-bearing
// field actually changes the encoding.
func TestCanonicalKeySeparatesParams(t *testing.T) {
	base := Table12Paper.Scale(2)
	variants := []func(*Params){
		func(p *Params) { p.Particles++ },
		func(p *Params) { p.Order++ },
		func(p *Params) { p.ProcOrder++ },
		func(p *Params) { p.Radius++ },
		func(p *Params) { p.Trials++ },
		func(p *Params) { p.Seed++ },
		func(p *Params) { p.Distribution = "normal" },
		func(p *Params) { p.Distribution = "exponential" },
	}
	seen := map[string]bool{base.CanonicalKey(): true}
	for i, mutate := range variants {
		p := base
		mutate(&p)
		key := p.CanonicalKey()
		if seen[key] {
			t.Errorf("variant %d collided with a previous key: %q", i, key)
		}
		seen[key] = true
	}
}
