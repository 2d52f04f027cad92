package main

import (
	"slices"
	"time"
)

// calNominalMS is what the calibration kernel takes on the reference host
// (2-core Xeon VM at 2.0 GHz) when it runs at full speed. Time metrics are
// reported as if the host ran at that speed throughout: each measured time
// is multiplied by calNominalMS over the kernel time around it.
const calNominalMS = 27.0

// calibrator times a fixed kernel that shares no code with the program:
// sorting a copy of a 1 MB pseudo-random array. On the reference VM, whose
// speed drifts by up to a third over minutes as other tenants come and go,
// the kernel's time tracked the simulator's per-op time with a correlation
// of 0.86 over 107 two-second epochs, while a 256 KB variant did not.
type calibrator struct{ base, buf []uint32 }

func newCalibrator() *calibrator {
	c := &calibrator{base: make([]uint32, 1<<18), buf: make([]uint32, 1<<18)}
	x := uint32(2463534242)
	for i := range c.base {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.base[i] = x
	}
	return c
}

// measure returns the fastest of three kernel runs in ms; the first run
// after a workload op often pays for the caches the op evicted.
func (c *calibrator) measure() float64 {
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		copy(c.buf, c.base)
		slices.Sort(c.buf)
		if ms := float64(time.Since(start).Nanoseconds()) / 1e6; i == 0 || ms < best {
			best = ms
		}
	}
	return best
}
