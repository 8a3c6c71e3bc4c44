package resultcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"sfcacd/internal/obs"
)

// testEntry builds an entry whose accounted size is exactly
// entryOverhead + payload bytes (experiment name left empty, result
// padded to the requested payload size).
func testEntry(id byte, payload int) Entry {
	e := Entry{
		Key:    Key{0: id},
		Result: json.RawMessage(bytes.Repeat([]byte("x"), payload)),
	}
	return e
}

func TestKeyForStable(t *testing.T) {
	k := KeyFor("table12", "params/v1:n=15625,k=8,po=6,r=1,t=3,s=2013", "sfcacd/results/v1")
	// Pinned: the content address is the on-disk file name; changing the
	// hash construction silently orphans every stored entry.
	const want = "69a680ad14d76850f2b8e145e25ca2b1019b1cf68f84eca8980409a68c500471"
	if got := k.String(); got != want {
		t.Errorf("KeyFor = %s, want %s", got, want)
	}
	if k2 := KeyFor("table12", "params/v1:n=15625,k=8,po=6,r=1,t=3,s=2013", "sfcacd/results/v1"); k2 != k {
		t.Error("KeyFor is not deterministic")
	}
}

func TestKeyForFraming(t *testing.T) {
	// Length framing: moving a byte across a part boundary must change
	// the key even though the concatenation is identical.
	a := KeyFor("ab", "c", "v")
	b := KeyFor("a", "bc", "v")
	c := KeyFor("a", "b", "cv")
	if a == b || b == c || a == c {
		t.Errorf("part-boundary shifts collided: %s %s %s", a, b, c)
	}
	if KeyFor("x", "y", "v1") == KeyFor("x", "y", "v2") {
		t.Error("schema version does not participate in the key")
	}
}

func TestCacheGetPut(t *testing.T) {
	c := New(1 << 20)
	key := Key{0: 1}
	if _, ok := c.Get(key); ok {
		t.Fatal("hit on empty cache")
	}
	e := Entry{Key: key, Experiment: "table12",
		Params: json.RawMessage(`{"n":1}`), Result: json.RawMessage(`[1,2]`)}
	c.Put(e)
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Experiment != e.Experiment || !bytes.Equal(got.Params, e.Params) || !bytes.Equal(got.Result, e.Result) {
		t.Errorf("Get = %+v, want %+v", got, e)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if want := e.size(); c.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", c.Bytes(), want)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	// Room for exactly two 100-byte-payload entries.
	c := New(2 * (entryOverhead + 100))
	before := obs.GetCounter("resultcache.evictions").Value()
	c.Put(testEntry(1, 100))
	c.Put(testEntry(2, 100))
	c.Get(Key{0: 1}) // touch 1: now 2 is least recently used
	c.Put(testEntry(3, 100))
	if _, ok := c.Get(Key{0: 2}); ok {
		t.Error("least-recently-used entry 2 survived eviction")
	}
	for _, id := range []byte{1, 3} {
		if _, ok := c.Get(Key{0: id}); !ok {
			t.Errorf("entry %d was evicted, want kept", id)
		}
	}
	if got := obs.GetCounter("resultcache.evictions").Value() - before; got != 1 {
		t.Errorf("evictions counter delta = %d, want 1", got)
	}
	if c.Bytes() > 2*(entryOverhead+100) {
		t.Errorf("Bytes = %d over budget", c.Bytes())
	}
}

func TestCacheRefreshSameKey(t *testing.T) {
	c := New(1 << 20)
	c.Put(testEntry(1, 100))
	c.Put(testEntry(1, 300))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after refresh, want 1", c.Len())
	}
	if want := testEntry(1, 300).size(); c.Bytes() != want {
		t.Errorf("Bytes = %d after refresh, want %d (accounting must track the new size)", c.Bytes(), want)
	}
	got, _ := c.Get(Key{0: 1})
	if len(got.Result) != 300 {
		t.Errorf("refreshed entry has %d result bytes, want 300", len(got.Result))
	}
}

func TestCacheDropsOversized(t *testing.T) {
	c := New(entryOverhead + 100)
	c.Put(testEntry(1, 50))
	c.Put(testEntry(2, 10_000)) // larger than the whole budget
	if _, ok := c.Get(Key{0: 2}); ok {
		t.Error("oversized entry was stored")
	}
	if _, ok := c.Get(Key{0: 1}); !ok {
		t.Error("oversized Put evicted the resident entry")
	}
}

func TestCacheZeroBudgetDisabled(t *testing.T) {
	c := New(0)
	c.Put(testEntry(1, 10))
	if _, ok := c.Get(Key{0: 1}); ok {
		t.Error("zero-budget cache stored an entry")
	}
	if c.Len() != 0 || c.Bytes() != 0 {
		t.Errorf("zero-budget cache Len=%d Bytes=%d, want 0/0", c.Len(), c.Bytes())
	}
}

func TestCacheCounters(t *testing.T) {
	hits := obs.GetCounter("resultcache.hits")
	misses := obs.GetCounter("resultcache.misses")
	h0, m0 := hits.Value(), misses.Value()
	c := New(1 << 20)
	c.Get(Key{0: 9})
	c.Put(testEntry(9, 10))
	c.Get(Key{0: 9})
	if got := hits.Value() - h0; got != 1 {
		t.Errorf("hits delta = %d, want 1", got)
	}
	if got := misses.Value() - m0; got != 1 {
		t.Errorf("misses delta = %d, want 1", got)
	}
}

func TestKeyJSONRoundTrip(t *testing.T) {
	k := KeyFor("fig6", "params", "v1")
	data, err := json.Marshal(k)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%q", k.String()); string(data) != want {
		t.Errorf("MarshalJSON = %s, want %s", data, want)
	}
	var back Key
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != k {
		t.Errorf("round trip changed the key: %s -> %s", k, back)
	}
	if err := json.Unmarshal([]byte(`"zz"`), &back); err == nil {
		t.Error("bad hex unmarshaled without error")
	}
}

// TestBodyCountedNotStored: an entry's response body counts in the
// memory budget, but the disk and wire formats leave it out.
func TestBodyCountedNotStored(t *testing.T) {
	e := wireTestEntry()
	e.Body = []byte("{\"encoded\":true}\n")
	c := New(1 << 20)
	c.Put(e)
	want := int64(len(e.Experiment) + len(e.Params) + len(e.Result) + len(e.Manifest) + len(e.Body) + entryOverhead)
	if got := c.Bytes(); got != want {
		t.Errorf("accounted %d bytes, want %d with the body", got, want)
	}
	if got, _ := c.Get(e.Key); !bytes.Equal(got.Body, e.Body) {
		t.Errorf("cached body = %q", got.Body)
	}

	store, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(nil, e); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := store.Get(nil, e.Key); err != nil || !ok || got.Body != nil {
		t.Errorf("disk round trip: body %q ok=%v err=%v, want no body", got.Body, ok, err)
	}
	wire, err := Export(e)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wire, []byte("encoded")) {
		t.Errorf("wire form carries the body: %s", wire)
	}
}
