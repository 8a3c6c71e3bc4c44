package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// FuzzImport holds peer-entry admission to its contract on arbitrary
// bytes: it never panics, and an accepted entry carries the key it was
// requested under, was shipped behind the sha256 of exactly the shipped
// body, is its Envelope's encoding, parses to itself and re-exports to
// bytes that import again.
// The input is also shipped as a body under a correct sum, so odd JSON,
// whitespace, field order and invalid UTF-8 reach the parser: Import
// admits it exactly when the disk store's parse does.
func FuzzImport(f *testing.F) {
	e := wireTestEntry(f)
	f.Add(Export(e), e.Key[:])
	f.Add([]byte(`{}`), e.Key[:])
	f.Add([]byte(`{"key":"zz","sum":""}`), []byte("k"))
	f.Add([]byte(`{ "a" : [1, 2] }`), []byte("table12"))
	f.Add(e.Body, e.Key[:])
	f.Add([]byte("{\"key\": \""+e.Key.String()+"\",\n \"experiment\": \"t<&>\xff\",\n \"result\": [ 1 ]}"), e.Key[:])
	f.Fuzz(func(t *testing.T, data, key []byte) {
		var want Key
		copy(want[:], key)
		if got, err := Import(data, want); err == nil {
			checkAdmitted(t, data, want, got)
		}
		shipped := Export(Entry{Key: want, Body: data})
		got, err := Import(shipped, want)
		if _, perr := parse(data, want); (err == nil) != (perr == nil) {
			t.Fatalf("Import of a correctly summed body = %v, parse = %v", err, perr)
		}
		if err == nil {
			checkAdmitted(t, shipped, want, got)
		}
	})
}

// checkAdmitted holds an entry Import accepted from data under want to
// the admission contract.
func checkAdmitted(t *testing.T, data []byte, want Key, got Entry) {
	t.Helper()
	if got.Key != want {
		t.Fatalf("Import accepted an entry for %v under %v", got.Key, want)
	}
	sum, payload, _ := bytes.Cut(data, []byte{'\n'})
	if h := sha256.Sum256(payload); hex.EncodeToString(h[:]) != string(sum) {
		t.Fatalf("Import accepted a payload that does not hash to its sum %q", sum)
	}
	var env Envelope
	if err := json.Unmarshal(got.Body, &env); err != nil {
		t.Fatalf("the admitted body does not decode: %v", err)
	}
	if enc, err := NewEntry(env); err != nil || !bytes.Equal(enc.Body, got.Body) {
		t.Fatalf("the admitted body is not its Envelope's encoding (%v):\n got %s\nwant %s", err, got.Body, enc.Body)
	}
	again, err := parse(got.Body, want)
	if err != nil || !bytes.Equal(again.Body, got.Body) {
		t.Fatalf("the admitted body does not parse to itself (%v):\n got %s\nthen %s", err, got.Body, again.Body)
	}
	back, err := Import(Export(got), want)
	if err != nil || !bytes.Equal(back.Body, got.Body) {
		t.Fatalf("the admitted entry does not re-export to bytes that import again (%v)", err)
	}
}
