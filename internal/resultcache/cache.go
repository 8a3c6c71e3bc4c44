package resultcache

import (
	"container/list"
	"encoding/json"
	"sync"

	"sfcacd/internal/obs"
)

// Entry is one cached result: the experiment it came from, the JSON
// encodings of its effective parameters and structured result, and the
// run manifest of the computation that produced it. All byte slices
// are treated as immutable once stored; callers must not mutate them.
type Entry struct {
	// Key is the entry's content address.
	Key Key `json:"key"`
	// Experiment is the registry name that produced the entry.
	Experiment string `json:"experiment"`
	// Params is the JSON encoding of the effective configuration.
	Params json.RawMessage `json:"params"`
	// Result is the JSON encoding of the structured result.
	Result json.RawMessage `json:"result"`
	// Manifest is the JSON run manifest of the producing computation.
	Manifest json.RawMessage `json:"manifest,omitempty"`
	// Body is the serving layer's encoded response for the entry, set
	// when the server admits it. It is neither persisted nor shipped to
	// peers: the disk and wire formats carry the fields above, and the
	// body is encoded from them again on admission.
	Body []byte `json:"-"`
}

// entryOverhead approximates the bookkeeping bytes an entry costs
// beyond its payload (list element, map slot, headers).
const entryOverhead = 256

// size is the entry's byte account.
func (e Entry) size() int64 {
	return int64(len(e.Experiment) + len(e.Params) + len(e.Result) + len(e.Manifest) + len(e.Body) + entryOverhead)
}

// MarshalJSON encodes the key as hex for the on-disk form.
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
