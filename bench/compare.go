package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict of one metric on one workload, B against A.
type verdict string

const (
	ok        verdict = "ok"
	regressed verdict = "regressed"
	improved  verdict = "improved"
)

// judge compares b with a for one metric: beyond the bound in the worse
// direction is a regression, beyond it in the better direction an
// improvement, anything else is within the run-to-run allowance. delta is
// (b-a)/a.
func judge(d metricDef, a, b float64) (delta float64, v verdict) {
	delta = (b - a) / a
	worse := delta
	if d.Better == "higher" {
		worse = -delta
	}
	switch {
	case worse > d.Bound:
		return delta, regressed
	case worse < -d.Bound:
		return delta, improved
	}
	return delta, ok
}

func readResultSet(path string) (resultSet, error) {
	var set resultSet
	data, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	if err := json.Unmarshal(data, &set); err != nil {
		return set, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// compareSets prints, per workload and end-to-end metric, both values, the
// relative change, the bound and the verdict, and returns how many metrics
// regressed. A workload that is missing from either set, or that failed
// more operations in B than in A, also counts as a regression.
func compareSets(w io.Writer, a, b resultSet) int {
	regressions := 0
	fmt.Fprintf(w, "%-20s %-12s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, wl := range workloads {
		ra, okA := a.Workloads[wl.name]
		rb, okB := b.Workloads[wl.name]
		if !okA || !okB {
			fmt.Fprintf(w, "%-20s missing from one of the sets: %s\n", wl.name, regressed)
			regressions++
			continue
		}
		for _, d := range endToEnd {
			va, vb := ra.Metrics[d.Name].Value, rb.Metrics[d.Name].Value
			delta, v := judge(d, va, vb)
			if v == regressed {
				regressions++
			}
			fmt.Fprintf(w, "%-20s %-12s %14.4f %14.4f %+7.1f%% %5.0f%%  %s\n", wl.name, d.Name, va, vb, 100*delta, 100*d.Bound, v)
		}
		v := ok
		if rb.Failed > ra.Failed {
			v = regressed
			regressions++
		}
		fmt.Fprintf(w, "%-20s %-12s %14d %14d %8s %6s  %s\n", wl.name, "failed", ra.Failed, rb.Failed, "", "", v)
	}
	return regressions
}

// compareMain is `bench compare A.json B.json`; it exits non-zero when any
// metric regressed.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sets [2]resultSet
	for i, path := range args {
		set, err := readResultSet(path)
		if err == nil && set.Meta.Trace != 0 {
			err = fmt.Errorf("%s: compare needs end-to-end result sets (--trace 0)", path)
		}
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		sets[i] = set
	}
	if n := compareSets(stdout, sets[0], sets[1]); n > 0 {
		fmt.Fprintf(stderr, "bench: %d regressions\n", n)
		return 1
	}
	return 0
}
