package main

import (
	"time"
)

// The hosts this benchmark runs on are a few cores of a shared machine whose
// core clock sits at one of two levels about 28% apart (turbo granted or
// not), for seconds to minutes at a time and for reasons outside the guest:
// a register-only loop, which nothing but the clock and preemption can slow,
// reads 1.63 or 2.09 ns per iteration, and every timing of the program moves
// with it by 22-30%. Two sets of runs of unchanged code then disagree by more
// than any bound the benchmark may set. So the end-to-end timings are
// reported at a reference clock: the loop below is timed before and after
// each measured rep, and the rep's times are divided by how much slower than
// the reference the core was running. What the correction cannot see
// (memory-side contention, which moves the float32 workloads by a few
// percent) stays in the numbers. README.md, "Steadiness", has the evidence.
const (
	clockProbeIters = 400_000 // about 0.9 ms at the reference clock
	clockSamples    = 21      // probes per reading; the reading is their median
	// refNsPerIter is the reference clock: one probe iteration took this long
	// in the sustained (not turbo) state of the box the baseline was taken on.
	refNsPerIter = 2.09
)

var clockSink uint32

// clockProbe times a fixed xorshift dependency chain: a known number of
// cycles that touches no memory.
func clockProbe() time.Duration {
	start := time.Now()
	x, acc := uint32(2463534242), uint32(0)
	for i := 0; i < clockProbeIters; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		acc += x >> 4 & 15
	}
	clockSink = acc
	return time.Since(start)
}

// hostSlowdown reads how much slower than the reference clock this core is
// running now: above 1 on a slower clock, below 1 on a faster one.
func hostSlowdown() float64 {
	ns := make([]float64, clockSamples)
	for i := range ns {
		ns[i] = float64(clockProbe()) / clockProbeIters
	}
	return median(ns) / refNsPerIter
}

// stopwatch times back-to-back intervals, reading the host clock at every
// boundary so that each interval knows the slowdown it ran under: the mean
// of the readings on either side of it.
type stopwatch struct {
	read     func() float64 // hostSlowdown, or a test's
	last     float64        // slowdown read at the previous boundary
	slowdown []float64      // one per lap
}

func newStopwatch() *stopwatch { return &stopwatch{read: hostSlowdown, last: hostSlowdown()} }

// lap runs f and returns the slowdown it ran under.
func (s *stopwatch) lap(f func()) float64 {
	f()
	now := s.read()
	slow := (s.last + now) / 2
	s.last = now
	s.slowdown = append(s.slowdown, slow)
	return slow
}

// atReference runs f and returns its wall time in seconds at the reference
// clock.
func atReference(f func() error) (float64, error) {
	sw := newStopwatch()
	var err error
	var d time.Duration
	slow := sw.lap(func() {
		start := time.Now()
		err = f()
		d = time.Since(start)
	})
	return d.Seconds() / slow, err
}
