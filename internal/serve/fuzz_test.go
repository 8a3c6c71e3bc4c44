package serve

import (
	"encoding/json"
	"strings"
	"testing"

	"sfcacd/internal/experiments"
)

// fuzzBodies seed both request-boundary targets: the bodies the CI
// smoke steps post, the three radius bodies that differ only in knobs
// the runner ignores, and a few malformed ones.
var fuzzBodies = append([]string{
	`{"Particles":1000,"Order":6,"ProcOrder":3,"Trials":1}`,
	`{"Particles":500,"Order":6,"ProcOrder":3,"Trials":1}`,
	`{"Particles":500,"Order":6,"ProcOrder":3,"Trials":1,"IncrMode":"rebuild"}`,
	`{"Particles":1048576,"Order":10,"ProcOrder":3,"Trials":1}`,
	`{"Particles":4,"Order":5,"ProcOrder":1,"Trials":1}`,
	`{"Particles":400,"Order":5,"ProcOrder":2,"Trials":1}`,
	`{"Particles":65536,"Order":8,"ProcOrder":3,"Radius":64}`,
	`{"ProcOrder":15}`,
	`{"Trials":1000000000}`,
	`{"Radius":65}`,
	`{"Distribution":"nonesuch"}`,
	``,
	`{`,
	`null`,
	`{"Particles":-1,"Order":99}`,
}, radiusBodies...)

// FuzzParams drives a request body through the single-request path:
// mergeParams under any registry name and preset, then Spec.Validate,
// then the cache key. None may panic, a resolved request must resolve
// to itself, and its key must not depend on the call.
func FuzzParams(f *testing.F) {
	names := experiments.Names()
	for i := range names {
		for _, preset := range []string{"", "paper", "bogus"} {
			for _, body := range fuzzBodies {
				f.Add(uint8(i), preset, []byte(body))
			}
		}
	}
	f.Fuzz(func(t *testing.T, idx uint8, preset string, body []byte) {
		name := names[int(idx)%len(names)]
		p, err := mergeParams(name, preset, body)
		if err != nil {
			return
		}
		spec, _ := experiments.Lookup(name)
		if spec.Resolve(p) != p {
			t.Fatalf("%s: resolved params %+v resolve to %+v", name, p, spec.Resolve(p))
		}
		if spec.Validate(p) != nil {
			return
		}
		if k1, k2 := RequestKey(name, p), RequestKey(name, p); k1 != k2 {
			t.Fatalf("%s: key %s then %s for the same params", name, k1, k2)
		}
	})
}

// FuzzBatch decodes a body into a BatchRequest the way handleBatch
// does and expands it. Neither step may panic, and every cell it
// accepts must be resolved and valid.
func FuzzBatch(f *testing.F) {
	f.Add([]byte(`{"experiments":["table12"],"params":{"Particles":20000,"Order":8,"ProcOrder":3,"Trials":1},"sweep":{"Seed":[1,2,3]},"workers":1}`))
	f.Add([]byte(`{"experiments":["table12","fig6"],"params":{"Particles":400,"Order":5},"sweep":{"Radius":[1,2],"Seed":[1,2]}}`))
	f.Add([]byte(`{"experiments":["radius"],"params":{"Particles":1000,"Order":6,"ProcOrder":3,"Trials":1},"sweep":{"Radius":[1,3],"Distribution":["","normal"]}}`))
	f.Add([]byte(`{"experiments":["nonesuch"]}`))
	f.Add([]byte(`{"experiments":[],"sweep":{"Seed":[]}}`))
	f.Add([]byte(`{"experiments":["table12"],"sweep":{"Bogus":[1]}}`))
	for _, body := range fuzzBodies {
		f.Add([]byte(`{"experiments":["radius","table12"],"params":` + strings.TrimSpace(body) + `}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var req BatchRequest
		dec := json.NewDecoder(strings.NewReader(string(body)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		cells, err := expandBatch(req)
		if err != nil {
			return
		}
		for i, c := range cells {
			spec, ok := experiments.Lookup(c.experiment)
			if !ok {
				t.Fatalf("cell %d names unknown experiment %q", i, c.experiment)
			}
			if spec.Resolve(c.params) != c.params {
				t.Fatalf("cell %d (%s): params %+v are not resolved", i, c.experiment, c.params)
			}
			if err := spec.Validate(c.params); err != nil {
				t.Fatalf("cell %d (%s): expanded invalid params: %v", i, c.experiment, err)
			}
		}
	})
}
