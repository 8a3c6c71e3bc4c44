package keynav

import "sync"

// pairCutoff mirrors sfc.SortPermByKeys's small-n crossover: below it
// an insertion sort beats the histogram setup.
const pairCutoff = 128

// pairScratch pools the ping-pong buffers of sortPairs. Concurrent
// sweep groups each build a set, so the sort scratch must not hit the
// allocator every time.
var pairScratch = sync.Pool{New: func() any { return new(pairBufs) }}

type pairBufs struct {
	keys  []uint64
	ranks []int32
}

// sortPairs stably sorts keys in place, carrying ranks along, using an
// LSD radix sort over the low keyBits bits (rounded up to whole bytes;
// higher bytes are constant zero for grid keys and skipped). Sorting
// the pairs directly — rather than a permutation — keeps the search
// arrays contiguous without a gather pass.
func sortPairs(keys []uint64, ranks []int32, keyBits uint) {
	n := len(keys)
	if n < 2 {
		return
	}
	if n <= pairCutoff {
		for i := 1; i < n; i++ {
			k, r := keys[i], ranks[i]
			j := i - 1
			for j >= 0 && keys[j] > k {
				keys[j+1], ranks[j+1] = keys[j], ranks[j]
				j--
			}
			keys[j+1], ranks[j+1] = k, r
		}
		return
	}

	passes := int(keyBits+7) / 8
	if passes > 8 {
		passes = 8
	}
	var counts [8][256]int32
	for _, k := range keys {
		for p := 0; p < passes; p++ {
			counts[p][byte(k>>(uint(p)*8))]++
		}
	}

	scratch := pairScratch.Get().(*pairBufs)
	tk := grow(scratch.keys, n)
	tr := grow(scratch.ranks, n)

	sk, sr := keys, ranks
	dk, dr := tk, tr
	for pass := 0; pass < passes; pass++ {
		shift := uint(pass) * 8
		c := &counts[pass]
		if c[byte(sk[0]>>shift)] == int32(n) {
			continue
		}
		sum := int32(0)
		for i := range c {
			cnt := c[i]
			c[i] = sum
			sum += cnt
		}
		for i, k := range sk {
			b := byte(k >> shift)
			dk[c[b]], dr[c[b]] = k, sr[i]
			c[b]++
		}
		sk, dk = dk, sk
		sr, dr = dr, sr
	}
	if &sk[0] != &keys[0] {
		copy(keys, sk)
		copy(ranks, sr)
	}
	scratch.keys, scratch.ranks = tk, tr
	pairScratch.Put(scratch)
}
