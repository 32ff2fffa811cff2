package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one metric. BENCHMARK.json lists the same names, units,
// directions and bounds; a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the system sees; every workload reports every
// one (README.md says what each means on a serving and on a tuning
// workload). Every time among them is at the reference clock (clock.go).
// Bound is the share of the parent's median by which the metric may worsen
// before a change counts as a regression. The timing bounds are the widest
// the benchmark contract allows: with the host's clock level taken out, ten
// runs of unchanged code still spread by 3-12% on the shared host they were
// sized on, and a bound should be about three spreads wide (README.md,
// "Steadiness"). They say what that machine can resolve, not what the
// program deserves.
var endToEnd = []metricDef{
	{"tok_s", "tok/s", "higher", 0.25},
	{"ttft_ms_p50", "ms", "lower", 0.25},
	{"itl_ms_p50", "ms", "lower", 0.25},
	{"iter_ms_p50", "ms", "lower", 0.25},
	{"eval_ppl", "ppl", "lower", 0.12},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a workload run prints.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// collect builds the metrics object from measured values, insisting that
// every defined metric was measured and is a finite number, and that nothing
// undefined slipped in.
func collect(defs []metricDef, got map[string]float64) (map[string]value, error) {
	out := make(map[string]value, len(defs))
	for _, d := range defs {
		v, ok := got[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	for name := range got {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s is not defined", name)
		}
	}
	return out, nil
}

// sortedNames returns the metric names of m in order.
func sortedNames(m map[string]value) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
