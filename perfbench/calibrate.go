package main

import (
	"slices"
	"time"
)

// The reference machine is a shared 2-vCPU virtual machine whose speed
// drifts by about ±10% over tens of seconds as other tenants load the
// host; the drift is in CPU time too, not only in wall time. So the
// end-to-end timings are calibrated: beside the measured operations
// the benchmark times a fixed reference kernel, and each operation's
// wall time is scaled by calibrationNominal / (kernel time nearby). A
// change to the program moves the operations but not the kernel, so
// the calibrated figures move with it; a change in host speed moves
// both and cancels. The raw wall-time figures are printed beside the
// JSON result.

// calibrationNominal is the kernel time the calibrated figures are
// scaled to, close to its time on the reference machine, so that
// calibrated milliseconds read like wall milliseconds there.
const calibrationNominal = 8 * time.Millisecond

// calibrationWords sizes the kernel's buffer: 32 MiB, well beyond the
// caches, like the grid-sized tables of the workloads.
const calibrationWords = 1 << 22

// calibrator runs the reference kernel: random read-modify-writes over
// a buffer larger than the caches, then a sort of fresh keys.
type calibrator struct {
	buf  []uint64
	keys []uint64
	x    uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{buf: make([]uint64, calibrationWords), keys: make([]uint64, 1<<15), x: 88172645463325252}
	for i := range c.buf {
		c.buf[i] = uint64(i)
	}
	c.run()
	return c
}

// next advances the kernel's xorshift generator.
func (c *calibrator) next() uint64 {
	c.x ^= c.x << 13
	c.x ^= c.x >> 7
	c.x ^= c.x << 17
	return c.x
}

// run times one pass of the kernel.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	var s uint64
	for i := 0; i < 1<<18; i++ {
		j := c.next() & (calibrationWords - 1)
		s += c.buf[j]
		c.buf[j] = s
	}
	for i := range c.keys {
		c.keys[i] = c.next()
	}
	slices.Sort(c.keys)
	c.x += s & 1
	return time.Since(start)
}

// time runs f between two kernel passes and returns its calibrated
// duration in nanoseconds.
func (c *calibrator) time(f func()) float64 {
	before := c.run()
	start := time.Now()
	f()
	d := time.Since(start)
	return calibrated(d, (before+c.run())/2)
}

// calibrated scales a wall time measured while the kernel took k.
func calibrated(d, k time.Duration) float64 {
	return float64(d) * float64(calibrationNominal) / float64(k)
}
