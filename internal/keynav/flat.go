package keynav

// Flat is a standalone single-level occupancy index: sorted
// (key, rank) pairs searched through a radix directory. It serves key
// spaces outside Set's 2D Morton hierarchy — the 3D model feeds it
// sfc.Morton3Key values to replace its per-neighbor map lookups.
type Flat struct {
	lv    level
	ranks []int32
}

// NewFlat builds a flat index over parallel key/rank slices whose keys
// occupy at most keyBits low bits. The slices are taken over (and
// sorted in place when not already sorted); the caller must not reuse
// them.
func NewFlat(keys []uint64, ranks []int32, keyBits uint) *Flat {
	if len(keys) != len(ranks) {
		panic("keynav: keys and ranks length mismatch")
	}
	sorted := true
	for i := 1; i < len(keys); i++ {
		if keys[i] < keys[i-1] {
			sorted = false
			break
		}
	}
	if !sorted {
		sortPairs(keys, ranks, keyBits)
	}
	f := &Flat{lv: level{keys: keys}, ranks: ranks}
	f.lv.buildDir(keyBits)
	return f
}

// Rank returns the rank stored for key k, or -1 if absent.
func (f *Flat) Rank(k uint64) int32 {
	if i := f.lv.find(k); i >= 0 {
		return f.ranks[i]
	}
	return -1
}

// N returns the number of indexed keys.
func (f *Flat) N() int { return len(f.lv.keys) }
