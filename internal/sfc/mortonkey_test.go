package sfc

import (
	"testing"

	"sfcacd/internal/geom"
)

// TestMortonKeyMatchesCurve pins the raw key helpers to the Morton
// curve they shortcut: same interleaving, same inverse.
func TestMortonKeyMatchesCurve(t *testing.T) {
	const order = 5
	Walk(Morton, order, func(d uint64, p geom.Point) {
		if k := MortonKey(p.X, p.Y); k != d {
			t.Fatalf("MortonKey(%d,%d) = %d, curve index %d", p.X, p.Y, k, d)
		}
		x, y := mortonDecode(d)
		if x != p.X || y != p.Y {
			t.Fatalf("mortonDecode(%d) = (%d,%d), want %v", d, x, y, p)
		}
	})
}

// TestMorton3Key checks the 3D interleaving against a per-bit
// reference and its injectivity on a small cube.
func TestMorton3Key(t *testing.T) {
	ref := func(x, y, z uint32) uint64 {
		var k uint64
		for b := uint(0); b < 21; b++ {
			k |= uint64(x>>b&1) << (3 * b)
			k |= uint64(y>>b&1) << (3*b + 1)
			k |= uint64(z>>b&1) << (3*b + 2)
		}
		return k
	}
	seen := make(map[uint64]bool)
	for z := uint32(0); z < 8; z++ {
		for y := uint32(0); y < 8; y++ {
			for x := uint32(0); x < 8; x++ {
				k := Morton3Key(x, y, z)
				if want := ref(x, y, z); k != want {
					t.Fatalf("Morton3Key(%d,%d,%d) = %d, want %d", x, y, z, k, want)
				}
				if seen[k] {
					t.Fatalf("Morton3Key collision at (%d,%d,%d)", x, y, z)
				}
				seen[k] = true
			}
		}
	}
	// High coordinates still interleave per-bit correctly.
	if k, want := Morton3Key(1<<20, 1<<20, 1<<20), ref(1<<20, 1<<20, 1<<20); k != want {
		t.Fatalf("Morton3Key high bits = %d, want %d", k, want)
	}
}
