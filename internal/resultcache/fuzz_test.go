package resultcache

import (
	"encoding/json"
	"strings"
	"testing"
)

// FuzzParseKey holds the key parser to its contract on arbitrary
// strings (peer URL paths): it never panics, every key survives
// String -> ParseKey, and every accepted string names a key that does.
func FuzzParseKey(f *testing.F) {
	for _, s := range []string{
		KeyFor("a", "b", "c").String(), "", "zz", "abcd",
		strings.Repeat("AB", 32), strings.Repeat("0", 63), strings.Repeat("f", 66),
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		var k Key
		copy(k[:], s)
		if got, err := ParseKey(k.String()); err != nil || got != k {
			t.Fatalf("ParseKey(%q) = %v, %v; want %v", k.String(), got, err, k)
		}
		parsed, err := ParseKey(s)
		if err != nil {
			return
		}
		if back, err := ParseKey(parsed.String()); err != nil || back != parsed {
			t.Fatalf("ParseKey(%q) accepted key %v that does not round-trip (%v, %v)", s, parsed, back, err)
		}
	})
}

// FuzzImport holds the peer-entry decoder to its contract on arbitrary
// bytes: it never panics; an accepted entry carries the key it was
// requested under and the checksum its wire form declares, and
// re-exports to bytes that import again. Independently, whatever entry
// Export accepts must import back under its own key — built here from
// the fuzz input, so odd raw JSON, nil fields and invalid UTF-8 reach
// the encoder.
func FuzzImport(f *testing.F) {
	e := wireTestEntry()
	good, err := Export(e)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, e.Key[:])
	f.Add([]byte(`{}`), e.Key[:])
	f.Add([]byte(`{"key":"zz","sum":""}`), []byte("k"))
	f.Add([]byte(`{ "a" : [1, 2] }`), []byte("table12"))
	f.Fuzz(func(t *testing.T, data, key []byte) {
		var want Key
		copy(want[:], key)
		if got, err := Import(data, want); err == nil {
			if got.Key != want {
				t.Fatalf("Import accepted an entry for %v under %v", got.Key, want)
			}
			var w wireEntry
			if err := json.Unmarshal(data, &w); err != nil || w.Sum != got.payloadSum() {
				t.Fatalf("Import accepted an entry whose checksum %q does not match its payload", w.Sum)
			}
			checkExportImports(t, got)
		}
		var raw json.RawMessage
		if json.Valid(data) {
			raw = data
		}
		checkExportImports(t, Entry{Key: want, Experiment: string(key), Params: raw, Manifest: raw})
	})
}

// checkExportImports requires Import to accept Export's output for
// the entry's own key, returning the same key and experiment.
func checkExportImports(t *testing.T, e Entry) {
	t.Helper()
	data, err := Export(e)
	if err != nil {
		return
	}
	got, err := Import(data, e.Key)
	if err != nil {
		t.Fatalf("Import rejected Export's output: %v\n%s", err, data)
	}
	if got.Key != e.Key {
		t.Fatalf("round trip changed the key: %v -> %v", e.Key, got.Key)
	}
}
