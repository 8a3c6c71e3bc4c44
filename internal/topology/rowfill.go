package topology

import "math/bits"

// RowFiller is implemented by topologies that can fill a whole
// distance row substantially faster than repeated Distance calls —
// straight-line arithmetic with no per-call rank validation or
// interface dispatch. DistanceTable uses it to cut its materialization
// cost, which lowers the lookup volume needed to amortize a build.
type RowFiller interface {
	// FillDistanceRow sets row[dst] = Distance(src, dst) for every dst
	// in [0, len(row)); len(row) is always P().
	FillDistanceRow(src int, row []uint16)
}

// FillDistanceRow implements RowFiller.
func (b *Bus) FillDistanceRow(src int, row []uint16) {
	for d := range row {
		if d < src {
			row[d] = uint16(src - d)
		} else {
			row[d] = uint16(d - src)
		}
	}
}

// FillDistanceRow implements RowFiller.
func (r *Ring) FillDistanceRow(src int, row []uint16) {
	n := len(row)
	for d := range row {
		v := src - d
		if v < 0 {
			v = -v
		}
		if wrap := n - v; wrap < v {
			v = wrap
		}
		row[d] = uint16(v)
	}
}

// coordLUTSide bounds the per-axis lookup tables the mesh fill uses:
// P <= 65536 (the DistanceTable range) means sides up to 256.
const coordLUTSide = 256

// FillDistanceRow implements RowFiller.
func (m *Mesh) FillDistanceRow(src int, row []uint16) {
	c := m.coords[src]
	if m.side > coordLUTSide {
		for d := range row {
			cd := m.coords[d]
			dx := int(c.X) - int(cd.X)
			if dx < 0 {
				dx = -dx
			}
			dy := int(c.Y) - int(cd.Y)
			if dy < 0 {
				dy = -dy
			}
			row[d] = uint16(dx + dy)
		}
		return
	}
	// Per-axis LUTs turn each cell into two L1 loads and an add.
	var lx, ly [coordLUTSide]uint16
	for v := uint32(0); v < m.side; v++ {
		dx := int(c.X) - int(v)
		if dx < 0 {
			dx = -dx
		}
		lx[v] = uint16(dx)
		dy := int(c.Y) - int(v)
		if dy < 0 {
			dy = -dy
		}
		ly[v] = uint16(dy)
	}
	for d := range row {
		cd := m.coords[d]
		row[d] = lx[cd.X] + ly[cd.Y]
	}
}

// FillDistanceRow implements RowFiller: one hop-table load per cell
// from the packed codes (see Torus), wrap arithmetic above
// torusLUTMaxSide.
func (t *Torus) FillDistanceRow(src int, row []uint16) {
	a, codes := t.codes[src]|t.guard, t.codes[:len(row)]
	if hops, m := t.hops, t.mask; hops != nil {
		for d, b := range codes {
			row[d] = hops[(a-b)&m]
		}
		return
	}
	for d, b := range codes {
		row[d] = uint16(t.codeHops(a, b))
	}
}

// FillDistanceRow implements RowFiller.
func (h *Hypercube) FillDistanceRow(src int, row []uint16) {
	for d := range row {
		row[d] = uint16(bits.OnesCount32(uint32(src ^ d)))
	}
}

// FillDistanceRow implements RowFiller.
func (q *QuadtreeNet) FillDistanceRow(src int, row []uint16) {
	for d := range row {
		if d == src {
			row[d] = 0
			continue
		}
		top := uint(bits.Len32(uint32(src ^ d)))
		row[d] = uint16(2 * ((top + 1) / 2))
	}
}
