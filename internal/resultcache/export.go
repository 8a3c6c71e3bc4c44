package resultcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// This file is the peer-transfer wire format: Export frames an entry
// for shipment to another fleet node, Import verifies and admits it.
// The payload is the entry's body, as the disk file is; the wire form
// adds an integrity checksum over exactly the shipped body, so an
// entry truncated or corrupted in transit is rejected at the receiver
// instead of being cached and served.

// Export frames e for transfer to a peer: the lowercase-hex sha256 of
// its body, a newline, then the body.
func Export(e Entry) []byte {
	sum := sha256.Sum256(e.Body)
	return append([]byte(hex.EncodeToString(sum[:])+"\n"), e.Body...)
}

// Import verifies an Export-ed entry and admits it: the checksum must
// match the shipped body (transfer integrity), and the body must parse
// as the entry stored under the key it was fetched under (the peer
// answered the right question). Either failure returns an error and no
// entry.
func Import(data []byte, want Key) (Entry, error) {
	sum, body, _ := bytes.Cut(data, []byte{'\n'})
	if got := sha256.Sum256(body); hex.EncodeToString(got[:]) != string(sum) {
		return Entry{}, fmt.Errorf("resultcache: peer entry %s checksum mismatch", want)
	}
	return parse(body, want)
}

// ParseKey parses the lowercase-hex form produced by Key.String.
func ParseKey(s string) (Key, error) {
	var k Key
	if err := k.parseHex(s); err != nil {
		return Key{}, err
	}
	return k, nil
}
