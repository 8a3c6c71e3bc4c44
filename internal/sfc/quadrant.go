package sfc

// Quadrants is implemented by the quadrant-recursive curves — Hilbert,
// Morton and Gray — whose order inside every aligned 2^l x 2^l block
// is a fixed ordering of the block's four quadrants, chosen by a small
// state the block inherits from its ancestors. A child-order table of
// that kind is what an L-system such as Hilbert's X → −YF+XFX+FY−
// spells out. With it, the curve order of any set of cells can be read
// off the set's Morton quadtree top down, without encoding a cell.
// Row-major, snake and Moore do not implement it.
type Quadrants interface {
	// Quadrant takes a cell's state (the root's is 0) and the Morton
	// quadrant q of one of its children (bit 0 = x, bit 1 = y). It
	// returns the child's visit position among its four siblings,
	// digit in [0, 4), and the child's state, also below 4. For every
	// cell p of a grid of order k, following Quadrant from the root
	// through p's k quadrants and concatenating the digits, most
	// significant first, yields Index(k, p).
	Quadrant(state, q uint8) (digit, next uint8)
}

// Quadrant has one state: the Z-curve visits the quadrants in Morton
// order at every level.
func (mortonCurve) Quadrant(_, q uint8) (digit, next uint8) { return q, 0 }

// Quadrant has two states, the parity of the Morton bits above the
// cell: GrayDecode XORs every higher bit into each bit, so an odd
// parity complements both bits of the decoded digit.
func (grayCurve) Quadrant(state, q uint8) (digit, next uint8) {
	hi := q >> 1
	lo := hi ^ q&1
	return (hi<<1 | lo) ^ 3*state, state ^ lo
}

// hilbertQuadrant[state][q] is the Hilbert curve's child-order table.
// A state is the transform Index has applied to the bits below the
// cell, bit 0 = swap x and y and bit 1 = complement both; the two
// commute, so composing transforms XORs their states.
var hilbertQuadrant = [4][4]struct{ digit, next uint8 }{
	{{0, 1}, {3, 3}, {1, 0}, {2, 0}},
	{{0, 0}, {1, 1}, {3, 2}, {2, 1}},
	{{2, 2}, {1, 2}, {3, 1}, {0, 3}},
	{{2, 3}, {3, 0}, {1, 3}, {0, 2}},
}

// Quadrant has four states, the orientations of the Hilbert block.
func (hilbertCurve) Quadrant(state, q uint8) (digit, next uint8) {
	e := hilbertQuadrant[state][q]
	return e.digit, e.next
}
