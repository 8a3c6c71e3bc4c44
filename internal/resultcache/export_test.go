package resultcache

import (
	"bytes"
	"encoding/json"
	"testing"
)

func wireTestEntry(t testing.TB) Entry {
	return mustEntry(t, Envelope{
		Experiment: "table12",
		Key:        KeyFor("table12", "params/v1:n=400", "sfcacd/results/v1"),
		Params:     json.RawMessage(`{"Particles":400}`),
		Result:     json.RawMessage(`[{"acd":1.5}]`),
		Manifest:   json.RawMessage(`{"schema":"sfcacd/run-manifest/v1"}`),
	})
}

func TestExportImportRoundTrip(t *testing.T) {
	e := wireTestEntry(t)
	got, err := Import(Export(e), e.Key)
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if got.Key != e.Key || !bytes.Equal(got.Body, e.Body) {
		t.Errorf("round trip changed the entry:\n got %s %s\nwant %s %s", got.Key, got.Body, e.Key, e.Body)
	}
}

// TestImportRejectsCorruption flips every byte of the wire form in
// turn; no corruption may import successfully (a changed sum and a
// changed body are both caught).
func TestImportRejectsCorruption(t *testing.T) {
	e := wireTestEntry(t)
	data := Export(e)
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, err := Import(mut, e.Key); err == nil {
			t.Fatalf("corruption at byte %d imported cleanly: %s", i, mut)
		}
	}
}

func TestImportRejectsWrongKey(t *testing.T) {
	e := wireTestEntry(t)
	other := KeyFor("fig6", "params/v1:n=400", "sfcacd/results/v1")
	if _, err := Import(Export(e), other); err == nil {
		t.Error("entry imported under a key it does not answer")
	}
}

// TestImportRejectsFieldWireForm: a peer still sending the entry's
// fields with a sum field beside them is refused.
func TestImportRejectsFieldWireForm(t *testing.T) {
	e := wireTestEntry(t)
	old := []byte(`{"key":"` + e.Key.String() + `","experiment":"table12","params":{"Particles":400},` +
		`"result":[{"acd":1.5}],"manifest":{"schema":"sfcacd/run-manifest/v1"},"sum":"00"}`)
	if _, err := Import(old, e.Key); err == nil {
		t.Error("the field wire form imported")
	}
}

func TestParseKeyRoundTrip(t *testing.T) {
	k := KeyFor("a", "b", "c")
	got, err := ParseKey(k.String())
	if err != nil {
		t.Fatal(err)
	}
	if got != k {
		t.Errorf("ParseKey(%q) = %v", k.String(), got)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Error("bad hex parsed")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Error("short key parsed")
	}
}
