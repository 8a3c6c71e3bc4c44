package partition

import "testing"

func TestChunksPartition(t *testing.T) {
	cases := []struct{ n, p int }{
		{10, 3}, {10, 10}, {10, 1}, {7, 4}, {100, 7}, {5, 8}, {1, 1}, {250000, 65536},
	}
	for _, c := range cases {
		// Starts/Ends tile [0, n) exactly.
		pos := 0
		for r := 0; r < c.p; r++ {
			if Start(r, c.n, c.p) != pos {
				t.Fatalf("n=%d p=%d: Start(%d) = %d, want %d", c.n, c.p, r, Start(r, c.n, c.p), pos)
			}
			pos = End(r, c.n, c.p)
		}
		if pos != c.n {
			t.Fatalf("n=%d p=%d: chunks end at %d", c.n, c.p, pos)
		}
	}
}

func TestChunkSizesBalanced(t *testing.T) {
	for _, c := range []struct{ n, p int }{{10, 3}, {17, 5}, {100, 7}, {250000, 65536}} {
		min, max := c.n, 0
		for r := 0; r < c.p; r++ {
			s := End(r, c.n, c.p) - Start(r, c.n, c.p)
			if s < min {
				min = s
			}
			if s > max {
				max = s
			}
		}
		if max-min > 1 {
			t.Errorf("n=%d p=%d: chunk sizes range [%d,%d]", c.n, c.p, min, max)
		}
	}
}

func TestChunkOfInverse(t *testing.T) {
	for _, c := range []struct{ n, p int }{{10, 3}, {10, 10}, {7, 4}, {97, 13}, {5, 8}} {
		for j := 0; j < c.n; j++ {
			r := ChunkOf(j, c.n, c.p)
			if j < Start(r, c.n, c.p) || j >= End(r, c.n, c.p) {
				t.Fatalf("n=%d p=%d: ChunkOf(%d) = %d but range is [%d,%d)",
					c.n, c.p, j, r, Start(r, c.n, c.p), End(r, c.n, c.p))
			}
		}
	}
}

func TestChunkOfMonotone(t *testing.T) {
	const n, p = 97, 13
	prev := 0
	for j := 0; j < n; j++ {
		r := ChunkOf(j, n, p)
		if r < prev {
			t.Fatalf("ChunkOf not monotone at %d: %d < %d", j, r, prev)
		}
		prev = r
	}
	if prev != p-1 {
		t.Fatalf("last element in chunk %d, want %d", prev, p-1)
	}
}

func TestChunkOfPanics(t *testing.T) {
	for _, bad := range [][3]int{{-1, 10, 2}, {10, 10, 2}, {0, 0, 2}, {0, 10, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChunkOf(%v) did not panic", bad)
				}
			}()
			ChunkOf(bad[0], bad[1], bad[2])
		}()
	}
}

func TestMoreProcessorsThanElements(t *testing.T) {
	// n=5, p=8: some chunks are empty; elements must still map to
	// distinct increasing ranks.
	const n, p = 5, 8
	for j := 0; j < n; j++ {
		r := ChunkOf(j, n, p)
		if r < 0 || r >= p {
			t.Fatalf("ChunkOf(%d) = %d out of range", j, r)
		}
	}
}
