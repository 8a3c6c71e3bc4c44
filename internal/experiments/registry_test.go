package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// registryTestParams is a tiny configuration every registry entry can run in
// well under a second; registry round-trip tests use it so running the
// whole table stays cheap.
var registryTestParams = Params{Particles: 300, Order: 5, ProcOrder: 2, Radius: 1, Trials: 1, Seed: 7}

func TestRegistryNamesUniqueAndOrdered(t *testing.T) {
	names := Names()
	if len(names) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" || name == "all" {
			t.Errorf("invalid registry name %q", name)
		}
		if strings.ToLower(name) != name || strings.ContainsAny(name, " /") {
			t.Errorf("registry name %q is not a lowercase token", name)
		}
		if seen[name] {
			t.Errorf("duplicate registry name %q", name)
		}
		seen[name] = true
		if Registry()[i].Name != name {
			t.Errorf("Names()[%d] = %q out of sync with Registry()", i, name)
		}
	}
	if !seen["table12"] || !seen["fig6"] || !seen["fig7"] {
		t.Errorf("core paper experiments missing from registry: %v", names)
	}
}

func TestRegistrySpecsComplete(t *testing.T) {
	for _, spec := range Registry() {
		if spec.Desc == "" {
			t.Errorf("%s: empty description", spec.Name)
		}
		if spec.Run == nil || spec.Decode == nil {
			t.Errorf("%s: nil Run or Decode", spec.Name)
		}
		if err := spec.Paper.Validate(); err != nil {
			t.Errorf("%s: invalid paper preset: %v", spec.Name, err)
		}
	}
}

func TestLookup(t *testing.T) {
	spec, ok := Lookup("table12")
	if !ok || spec.Name != "table12" {
		t.Fatalf("Lookup(table12) = %+v, %v", spec, ok)
	}
	if _, ok := Lookup("nonesuch"); ok {
		t.Fatal("Lookup(nonesuch) succeeded")
	}
}

// TestRegistryRoundTrip runs every experiment at a tiny configuration
// and checks the contract the serving layer depends on: Run produces a
// renderable result whose JSON round-trips through Decode into an
// equal rendering.
func TestRegistryRoundTrip(t *testing.T) {
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			out, err := spec.Run(context.Background(), registryTestParams)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if out.Result == nil {
				t.Fatal("nil result")
			}
			var direct bytes.Buffer
			if err := out.Result.Render(&direct); err != nil {
				t.Fatalf("Render: %v", err)
			}
			if direct.Len() == 0 {
				t.Fatal("empty rendering")
			}
			data, err := json.Marshal(out.Result)
			if err != nil {
				t.Fatalf("Marshal: %v", err)
			}
			decoded, err := spec.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			var replay bytes.Buffer
			if err := decoded.Render(&replay); err != nil {
				t.Fatalf("Render decoded: %v", err)
			}
			if direct.String() != replay.String() {
				t.Errorf("decoded rendering differs from direct rendering:\n--- direct ---\n%s\n--- decoded ---\n%s",
					direct.String(), replay.String())
			}
			for _, panel := range out.Result.CSVPanels() {
				if panel.Name == "" || panel.Write == nil {
					t.Errorf("invalid CSV panel %+v", panel)
				}
			}
		})
	}
}

// TestRegistryRunHonorsCancellation: every entry must return promptly
// with the context's error when called with a canceled context — the
// serving layer relies on this to shed abandoned work.
func TestRegistryRunHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range Registry() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			out, err := spec.Run(ctx, registryTestParams)
			if err == nil {
				t.Fatalf("Run with canceled context succeeded (result %T)", out.Result)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Run error = %v, want context.Canceled", err)
			}
		})
	}
}

// TestDerivedConfigs pins the derivations that map shared Params onto
// experiment-specific configurations. They must stay pure functions of
// Params: the cache key is computed from Params alone, so any hidden
// input here would poison the content-addressed cache.
func TestDerivedConfigs(t *testing.T) {
	scaled := Table12Paper.Scale(2)
	if got := ClusteringFromParams(scaled).QueryTrials; got != 2000 {
		t.Errorf("scaled clustering trials = %d, want 2000", got)
	}
	if got := ClusteringFromParams(Table12Paper).QueryTrials; got != 10000 {
		t.Errorf("paper clustering trials = %d, want 10000", got)
	}
	if got := MetricsFromParams(scaled).MetricOrder; got != 7 {
		t.Errorf("scaled metric order = %d, want 7", got)
	}
	if got := MetricsFromParams(Table12Paper).MetricOrder; got != 9 {
		t.Errorf("paper metric order = %d, want 9", got)
	}
	if got := ThreeDFromParams(scaled); got != ThreeDDefault {
		t.Errorf("scaled 3D config = %+v, want ThreeDDefault", got)
	}
	if got := ThreeDFromParams(Table12Paper); got.Particles != 200000 || got.Order != 7 || got.ProcOrder != 3 {
		t.Errorf("paper 3D config = %+v, want 200000 particles at order 7, proc order 3", got)
	}
	if got := fig7Orders(Params{ProcOrder: 8}); len(got) != 4 || got[0] != 5 || got[3] != 8 {
		t.Errorf("fig7Orders(po=8) = %v, want [5 6 7 8]", got)
	}
	if got := fig7Orders(Params{ProcOrder: 2}); len(got) != 1 || got[0] != 2 {
		t.Errorf("fig7Orders(po=2) = %v, want [2]", got)
	}
}

// TestThreeDIgnoresUnreadKnobs: threed derives its whole configuration
// from Particles (a threshold), Radius and Seed. A request whose Order,
// ProcOrder and Trials no 2D sweep would accept — more particles than
// its grid has cells — is valid, keys like the request without them,
// and renders the same result.
func TestThreeDIgnoresUnreadKnobs(t *testing.T) {
	spec, _ := Lookup("threed")
	base := registryTestParams
	odd := base
	odd.Order, odd.ProcOrder, odd.Trials = 3, 9, 7
	if odd.Validate() == nil {
		t.Fatalf("%+v passes Params.Validate; the test needs a 2D-invalid request", odd)
	}
	if err := spec.Validate(spec.Resolve(odd)); err != nil {
		t.Fatalf("threed rejected knobs it never reads: %v", err)
	}
	if a, b := spec.Resolve(odd).CanonicalKey(), spec.Resolve(base).CanonicalKey(); a != b {
		t.Errorf("keys differ: %s vs %s", a, b)
	}
	var renders [2]bytes.Buffer
	for i, p := range []Params{base, odd} {
		out, err := spec.Run(context.Background(), spec.Resolve(p))
		if err != nil {
			t.Fatalf("Run(%+v): %v", p, err)
		}
		if err := out.Result.Render(&renders[i]); err != nil {
			t.Fatal(err)
		}
	}
	if renders[0].String() != renders[1].String() {
		t.Errorf("renderings differ:\n%s\n---\n%s", renders[0].String(), renders[1].String())
	}
	// What threed derives is still bounded: its 3D near field.
	big := base
	big.Radius = 65
	if spec.Validate(spec.Resolve(big)) == nil {
		t.Error("threed accepted a 3D near field over the bound")
	}
}

// TestResolveRadiusZeroIsOne: every near field reads radius 0 as 1, so
// Resolve makes it 1 before keying, and a radius-0 request shares the
// radius-1 request's parameters and cache key in every experiment. The
// unresolved keys still differ: CanonicalKey itself is pinned.
func TestResolveRadiusZeroIsOne(t *testing.T) {
	zero, one := registryTestParams, registryTestParams
	zero.Radius, one.Radius = 0, 1
	if zero.CanonicalKey() == one.CanonicalKey() {
		t.Fatal("unresolved radius-0 and radius-1 params share a key")
	}
	for _, spec := range Registry() {
		z, o := spec.Resolve(zero), spec.Resolve(one)
		if z != o || z.CanonicalKey() != o.CanonicalKey() {
			t.Errorf("%s: radius 0 resolves to %+v (%s), radius 1 to %+v (%s)", spec.Name, z, z.CanonicalKey(), o, o.CanonicalKey())
		}
		if spec.Resolve(z) != z {
			t.Errorf("%s: resolving %+v again gives %+v", spec.Name, z, spec.Resolve(z))
		}
	}
}
