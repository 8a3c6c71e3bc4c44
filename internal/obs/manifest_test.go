package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// sampleManifest builds a manifest the way cmd/acdbench does, with
// every nondeterministic input a real run would produce.
func sampleManifest() *Manifest {
	reg := NewRegistry()
	reg.GetCounter("sfc.encode").Add(123456)
	reg.GetCounter("sfc.encode.hilbert").Add(123456)
	reg.GetCounter("topology.distance.analytic").Add(789000)
	reg.GetGauge("acd.zero_hop_fraction").Set(0.25)
	h := reg.GetHistogram("acd.assign_ns", ExponentialBuckets(10000, 4, 4))
	h.Observe(2.5e4)
	h.Observe(9e5)

	tr := NewTracer()
	exp := tr.Root().Child("table12")
	s := exp.Child("sampling")
	time.Sleep(time.Microsecond)
	s.End()
	a := exp.Child("assign")
	a.Child("ordering").End()
	a.Child("partitioning").End()
	a.End()
	exp.Child("accumulation.nfi").End()
	exp.Child("accumulation.ffi").End()
	exp.End()

	m := NewManifest("acdbench")
	m.AddExperiment("table12",
		map[string]any{"particles": 15625, "order": 8, "proc_order": 6, "radius": 1, "trials": 3, "seed": 2013},
		1500*time.Millisecond, tr.Take())
	m.ObserveMemStats()
	m.Metrics = reg.Snapshot()
	return m
}

// TestManifestGolden locks the deterministic manifest schema: stable
// field names, stable ordering, and no timing- or host-dependent
// fields once Deterministic() is applied. Regenerate with -update.
func TestManifestGolden(t *testing.T) {
	m := sampleManifest()
	m.Deterministic()
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "manifest.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden file (regenerate with go test -run Golden -update): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("manifest drifted from golden schema.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

// TestManifestDeterministicTwice verifies two separately built
// manifests canonicalize to identical bytes — i.e. that
// Deterministic() strips every nondeterministic field.
func TestManifestDeterministicTwice(t *testing.T) {
	enc := func() []byte {
		m := sampleManifest()
		m.Deterministic()
		var buf bytes.Buffer
		if err := m.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a := enc()
	time.Sleep(2 * time.Millisecond)
	b := enc()
	if !bytes.Equal(a, b) {
		t.Fatalf("deterministic manifests differ:\n%s\nvs\n%s", a, b)
	}
}

func TestManifestNondeterministicFieldsPresent(t *testing.T) {
	// Before canonicalization the manifest must carry the run
	// evidence: environment, timestamps, memory peaks.
	m := sampleManifest()
	if m.CreatedAt == "" || m.Env == nil || m.Env.GoVersion == "" || m.Mem == nil {
		t.Fatalf("manifest missing environment fields: %+v", m)
	}
	if m.Mem.PeakHeapAllocBytes == 0 {
		t.Fatal("ObserveMemStats recorded no heap peak")
	}
	var buf bytes.Buffer
	if err := m.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if decoded["schema"] != ManifestSchema {
		t.Fatalf("schema = %v, want %v", decoded["schema"], ManifestSchema)
	}
}

func TestManifestWriteFile(t *testing.T) {
	m := sampleManifest()
	path := filepath.Join(t.TempDir(), "out.json")
	if err := m.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var decoded Manifest
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatalf("written manifest does not round-trip: %v", err)
	}
	if decoded.Schema != ManifestSchema || len(decoded.Experiments) != 1 {
		t.Fatalf("round-tripped manifest = %+v", decoded)
	}
}
