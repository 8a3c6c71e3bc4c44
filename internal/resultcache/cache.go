package resultcache

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"sfcacd/internal/obs"
)

// Entry is one cached result: its content address and its body, the
// JSON encoding of its Envelope plus a newline. The body is at once the
// daemon's response, the disk store's file and the payload a peer
// ships, so a result is encoded once: when it is computed (NewEntry),
// or when a disk file or a peer payload is admitted. The body is
// immutable once stored; callers must not mutate it.
type Entry struct {
	// Key is the entry's content address.
	Key Key
	// Body is the encoded Envelope and a trailing newline.
	Body []byte
}

// Envelope is the JSON form of a cached result: the experiment that
// produced it, its key, the JSON encodings of its effective parameters
// and structured result, and the run manifest of the computation. Its
// encoding is an entry's body; the key it carries makes a disk file or
// a peer payload self-describing.
type Envelope struct {
	Experiment string          `json:"experiment"`
	Key        Key             `json:"key"`
	Params     json.RawMessage `json:"params"`
	Result     json.RawMessage `json:"result"`
	Manifest   json.RawMessage `json:"manifest,omitempty"`
}

// NewEntry encodes env as the body of the entry stored under env.Key:
// json.Marshal of env plus a newline. Marshal compacts and HTML-escapes
// the raw fields, so JSON with whitespace comes out compacted.
func NewEntry(env Envelope) (Entry, error) {
	data, err := json.Marshal(env)
	if err != nil {
		return Entry{}, fmt.Errorf("resultcache: encoding entry %s: %w", env.Key, err)
	}
	return Entry{Key: env.Key, Body: append(data, '\n')}, nil
}

// parse admits the bytes of a disk file or a peer payload as the entry
// stored under want: it decodes their Envelope, checks that its
// self-describing key is want, and encodes it again, so whitespace or
// field order a peer or a hand edit introduced is gone from the body.
// A file written with the key first parses too: the field names are
// the same.
func parse(data []byte, want Key) (Entry, error) {
	var env Envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return Entry{}, fmt.Errorf("resultcache: corrupt entry %s: %w", want, err)
	}
	if env.Key != want {
		return Entry{}, fmt.Errorf("resultcache: entry %s stored under key %s", env.Key, want)
	}
	return NewEntry(env)
}

// entryOverhead approximates the bookkeeping bytes an entry costs
// beyond its body (list element, map slot, headers).
const entryOverhead = 256

// size is the entry's byte account.
func (e Entry) size() int64 { return int64(len(e.Body) + entryOverhead) }

// MarshalJSON encodes the key as hex, its form in an Envelope.
func (k Key) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

// UnmarshalJSON decodes the hex form.
func (k *Key) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return err
	}
	return k.parseHex(s)
}

// Cache is a thread-safe, byte-size-accounted LRU over Entry values.
// Put of an entry larger than the budget is dropped (never evicts the
// whole cache for one oversized result); otherwise least-recently-used
// entries are evicted until the new entry fits.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	curBytes int64
	ll       *list.List // front = most recently used; values are *Entry
	items    map[Key]*list.Element

	hits, misses, evictions, puts *obs.Counter
	bytesGauge, entriesGauge      *obs.Gauge
}

// New returns a cache bounded to maxBytes of accounted entry payload.
// maxBytes <= 0 disables storage entirely (every Get misses, every Put
// is dropped), which keeps call sites free of nil checks.
func New(maxBytes int64) *Cache {
	return &Cache{
		maxBytes:     maxBytes,
		ll:           list.New(),
		items:        make(map[Key]*list.Element),
		hits:         obs.GetCounter("resultcache.hits"),
		misses:       obs.GetCounter("resultcache.misses"),
		evictions:    obs.GetCounter("resultcache.evictions"),
		puts:         obs.GetCounter("resultcache.puts"),
		bytesGauge:   obs.GetGauge("resultcache.bytes"),
		entriesGauge: obs.GetGauge("resultcache.entries"),
	}
}

// Get returns the entry stored under k and marks it most recently
// used.
func (c *Cache) Get(k Key) (Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.misses.Inc()
		return Entry{}, false
	}
	c.ll.MoveToFront(el)
	c.hits.Inc()
	return *el.Value.(*Entry), true
}

// Put stores e under e.Key, evicting least-recently-used entries as
// needed. Storing an existing key refreshes the entry and its
// recency.
func (c *Cache) Put(e Entry) {
	sz := e.size()
	c.mu.Lock()
	defer c.mu.Unlock()
	if sz > c.maxBytes {
		return
	}
	if el, ok := c.items[e.Key]; ok {
		c.curBytes += sz - el.Value.(*Entry).size()
		el.Value = &e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.Key] = c.ll.PushFront(&e)
		c.curBytes += sz
	}
	c.puts.Inc()
	for c.curBytes > c.maxBytes {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		victim := oldest.Value.(*Entry)
		c.ll.Remove(oldest)
		delete(c.items, victim.Key)
		c.curBytes -= victim.size()
		c.evictions.Inc()
	}
	c.bytesGauge.Set(float64(c.curBytes))
	c.entriesGauge.Set(float64(c.ll.Len()))
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the accounted payload size.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.curBytes
}
