package main

import (
	"math"
	"sort"
	"syscall"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending sample: the
// smallest value with at least p percent of the sample at or below it.
// An empty sample reads NaN, which the result writer refuses, so a phase
// that produced no samples cannot report a made-up number.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return math.NaN()
	}
	return asc[rank(len(asc), p)-1]
}

// rank is the 1-based nearest rank of percentile p in a sample of n.
func rank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

func median(xs []float64) float64 { return percentile(sorted(xs), 50) }

// finite reports whether v is neither NaN nor an infinity.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// quiet is the value of the quietest rep but one: the second-highest rate or
// the second-lowest latency. With the host's clock level already taken out
// (clock.go), what still differs between reps of one run is interference
// from the host's other tenants, which can only make a rep slower, so the
// quiet reps are the true ones; the single best is left out because a clock
// level that changed inside a rep can make that one rep read too fast. On
// ten runs of unchanged code this moved a half to a third as much as the
// median of the reps (README.md, "Steadiness"). It does not see jitter a
// change adds inside a run; the traced run's client.* group keeps the pooled
// medians and tails for that.
func quiet(perRep []float64, better string) float64 {
	asc := sorted(perRep)
	if len(asc) < 2 {
		return math.NaN()
	}
	if better == "higher" {
		return asc[len(asc)-2]
	}
	return asc[1]
}

// tailPercentiles are tried highest first; the median is the fallback for
// samples too small to support any of them.
var tailPercentiles = []float64{99, 95, 90, 75}

// minBeyond is how many samples must lie beyond a percentile's rank before
// it is reported: fewer and the "tail" is a handful of outliers.
const minBeyond = 10

// supportedTail picks the highest percentile of an n-sample that still has
// minBeyond samples beyond it.
func supportedTail(n int) float64 {
	for _, p := range tailPercentiles {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// tail returns the highest supported percentile of xs and its value.
func tail(xs []float64) (p, value float64) {
	p = supportedTail(len(xs))
	return p, percentile(sorted(xs), p)
}

// peakRSSMB is the process's resident-set high-water mark. Linux reports
// ru_maxrss in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}
