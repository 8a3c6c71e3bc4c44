package resultcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// This file is the peer-transfer wire format: Export frames an entry
// for shipment to another fleet node, Import verifies and unpacks it.
// The on-disk entry format (disk.go) trusts the local filesystem plus
// the self-describing key; the wire format additionally carries an
// integrity checksum over the payload, so an entry truncated or
// corrupted in transit is rejected at the receiver instead of being
// cached and served.

// wireEntry is the transfer form of an Entry: the entry itself plus a
// checksum over its payload fields.
type wireEntry struct {
	Entry
	// Sum is the lowercase-hex sha256 of the entry's length-framed
	// payload (key, experiment, params, result, manifest).
	Sum string `json:"sum"`
}

// payloadSum hashes the entry's payload fields, length-framed like
// KeyFor so no two distinct field tuples can collide by concatenation.
func (e Entry) payloadSum() string {
	h := sha256.New()
	var frame [8]byte
	for _, part := range [][]byte{e.Key[:], []byte(e.Experiment), e.Params, e.Result, e.Manifest} {
		n := len(part)
		for i := 0; i < 8; i++ {
			frame[i] = byte(n >> (8 * i))
		}
		h.Write(frame[:])
		h.Write(part)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// Export encodes e for transfer to a peer: the entry JSON plus its
// payload checksum. Import on the receiving side verifies both the
// checksum and the key the entry was requested under.
//
// The checksum covers the entry as the receiver decodes it: encoding
// compacts and HTML-escapes raw JSON fields, writes nil ones as null,
// and replaces invalid UTF-8, so the entry is passed through one
// encode/decode before it is summed. Entries built by json.Marshal
// (every computed entry) come out of that pass unchanged.
func Export(e Entry) ([]byte, error) {
	raw, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	var shipped Entry
	if err := json.Unmarshal(raw, &shipped); err != nil {
		return nil, err
	}
	return json.Marshal(wireEntry{Entry: shipped, Sum: shipped.payloadSum()})
}

// Import decodes an Export-ed entry and verifies it: the payload
// checksum must match (transfer integrity) and the entry's
// self-describing key must equal the key it was fetched under (the
// peer answered the right question). Either failure returns an error
// and no entry.
func Import(data []byte, want Key) (Entry, error) {
	var w wireEntry
	if err := json.Unmarshal(data, &w); err != nil {
		return Entry{}, fmt.Errorf("resultcache: corrupt peer entry for %s: %w", want, err)
	}
	if sum := w.Entry.payloadSum(); sum != w.Sum {
		return Entry{}, fmt.Errorf("resultcache: peer entry %s checksum mismatch", want)
	}
	if w.Entry.Key != want {
		return Entry{}, fmt.Errorf("resultcache: peer entry %s answered for key %s", want, w.Entry.Key)
	}
	return w.Entry, nil
}

// ParseKey parses the lowercase-hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	if err := k.parseHex(s); err != nil {
		return Key{}, err
	}
	return k, nil
}
