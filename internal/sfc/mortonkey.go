package sfc

// Raw Morton key helpers for the key-space neighbor engine
// (internal/keynav): the bit forms behind the Morton curve. Unlike
// Curve.Index they skip bounds checks and per-call statistics, because
// they sit in the engine's inner loops.

// MortonKey returns the Z-curve index of (x, y): the bit interleaving
// with y in the odd positions. It equals Morton.Index for points on
// the grid but accepts any uint32 coordinates.
func MortonKey(x, y uint32) uint64 { return mortonEncode(x, y) }

// Morton3Key returns the 3D Z-curve index of (x, y, z): the bit
// interleaving of the three coordinates with x in the lowest
// positions. Coordinates must fit in 21 bits (cube side up to 2^21).
func Morton3Key(x, y, z uint32) uint64 {
	return part1by2(x) | part1by2(y)<<1 | part1by2(z)<<2
}

// part1by2 spreads the low 21 bits of v to every third bit position of
// a 64-bit word.
func part1by2(v uint32) uint64 {
	x := uint64(v) & 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}
