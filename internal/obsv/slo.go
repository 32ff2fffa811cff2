package obsv

import (
	"fmt"
	"strconv"
	"strings"
)

// SLO objectives, read from the metric registry when asked.
//
// An objective is either a latency quantile bound ("p99_ttft_ms=200": the
// 99th percentile of serve.ttft_ms must stay under 200ms) or an
// availability target ("availability=0.999"). Each objective has an error
// budget — the fraction of requests allowed to violate it (1−quantile for
// latency, 1−target for availability). Status reads an objective's
// cumulative (bad, total) counts from a recorder and judges them; nothing
// samples in the background. Windows (burn over the last 5 minutes, say)
// are a scraper's job: it differences these cumulative counts, or the
// serve.errors / serve.requests counters, at its own interval. Objectives
// are *reported* — on /statusz and by `edgellm telemetry serve-report` —
// never enforced: the serving path must not shed load because an SLO is
// burning.

// SLOKind distinguishes latency-quantile objectives from availability
// objectives.
type SLOKind int

const (
	// SLOLatency bounds a quantile of a distribution series.
	SLOLatency SLOKind = iota
	// SLOAvailability bounds the error fraction of a counter pair.
	SLOAvailability
)

// SLOObjective is one parsed objective from an -slo spec.
type SLOObjective struct {
	Name string // spec key, e.g. "p99_ttft_ms" or "availability"
	Kind SLOKind

	// Latency objectives: the quantile of Dist that must stay ≤ Threshold.
	Dist      string  // distribution series name, e.g. "serve.ttft_ms"
	Quantile  float64 // e.g. 0.99
	Threshold float64 // bound in the dist's unit (ms)

	// Availability objectives: BadCounter/TotalCounter must stay ≤ 1−Target.
	Target       float64
	BadCounter   string // e.g. "serve.errors"
	TotalCounter string // e.g. "serve.requests"

	// Budget is the error-budget fraction: 1−Quantile or 1−Target.
	Budget float64
}

// Counts reads o's cumulative (bad, total) from r: requests over the
// latency bound out of the dist's count, or the bad counter out of the
// total counter. Status counts through it.
func (o SLOObjective) Counts(r *Recorder) (bad, total int64) {
	switch o.Kind {
	case SLOLatency:
		return r.DistCountsAbove(o.Dist, o.Threshold)
	case SLOAvailability:
		return r.CounterTotal(o.BadCounter), r.CounterTotal(o.TotalCounter)
	}
	return 0, 0
}

// ParseSLOSpec parses a comma-separated objective spec, e.g.
//
//	p99_ttft_ms=200,p95_request_ms=1500,availability=0.999
//
// Latency keys have the form p<quantile>_<dist>: "p99_ttft_ms" targets the
// 0.99 quantile of the "serve.ttft_ms" distribution ("p999_..." → 0.999).
// "availability" targets the serve.errors / serve.requests counter pair.
func ParseSLOSpec(spec string) ([]SLOObjective, error) {
	var objs []SLOObjective
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		key = strings.TrimSpace(key)
		if !ok || key == "" {
			return nil, fmt.Errorf("slo: malformed objective %q (want key=value)", part)
		}
		if seen[key] {
			return nil, fmt.Errorf("slo: duplicate objective %q", key)
		}
		seen[key] = true
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("slo: objective %q: bad value %q", key, val)
		}
		switch {
		case key == "availability":
			if v <= 0 || v >= 1 {
				return nil, fmt.Errorf("slo: availability target %v out of (0, 1)", v)
			}
			objs = append(objs, SLOObjective{
				Name: key, Kind: SLOAvailability,
				Target:       v,
				BadCounter:   "serve.errors",
				TotalCounter: "serve.requests",
				Budget:       1 - v,
			})
		case strings.HasPrefix(key, "p"):
			digits, rest, ok := strings.Cut(key[1:], "_")
			if !ok || digits == "" || rest == "" {
				return nil, fmt.Errorf("slo: latency objective %q must look like p99_ttft_ms", key)
			}
			n, err := strconv.Atoi(digits)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("slo: latency objective %q: bad quantile %q", key, digits)
			}
			q := float64(n) / pow10(len(digits)) // p99 → 0.99, p999 → 0.999
			if q <= 0 || q >= 1 {
				return nil, fmt.Errorf("slo: latency objective %q: quantile %v out of (0, 1)", key, q)
			}
			if v <= 0 {
				return nil, fmt.Errorf("slo: latency objective %q: threshold %v must be positive", key, v)
			}
			objs = append(objs, SLOObjective{
				Name: key, Kind: SLOLatency,
				Dist: "serve." + rest, Quantile: q, Threshold: v,
				Budget: 1 - q,
			})
		default:
			return nil, fmt.Errorf("slo: unknown objective %q (want p<q>_<dist>=<ms> or availability=<frac>)", key)
		}
	}
	if len(objs) == 0 {
		return nil, fmt.Errorf("slo: empty spec")
	}
	return objs, nil
}

func pow10(n int) float64 {
	p := 1.0
	for i := 0; i < n; i++ {
		p *= 10
	}
	return p
}

// SLOStatus is the cumulative state of one objective, rendered on /statusz
// and by `edgellm telemetry serve-report`.
type SLOStatus struct {
	Objective  string  `json:"objective"`
	Target     float64 `json:"target"`              // the quantile (latency) or the target (availability)
	Threshold  float64 `json:"threshold,omitempty"` // latency bound (ms)
	Budget     float64 `json:"budget"`
	Bad        int64   `json:"bad"`   // cumulative violations
	Total      int64   `json:"total"` // cumulative requests
	Attained   float64 `json:"attained"`
	BudgetUsed float64 `json:"budget_used"` // bad fraction over budget: 1 spends it exactly
	Met        bool    `json:"met"`
}

// Status reads o's cumulative counts from r and judges them. Zero traffic
// has attained 1 with no budget used; attained below the target is a
// violation, and attained exactly at it is met.
func (o SLOObjective) Status(r *Recorder) SLOStatus {
	bad, total := o.Counts(r)
	st := SLOStatus{
		Objective: o.Name, Target: o.Target, Threshold: o.Threshold,
		Budget: o.Budget, Bad: bad, Total: total, Attained: 1,
	}
	if o.Kind == SLOLatency {
		st.Target = o.Quantile
	}
	if total > 0 {
		st.Attained = 1 - float64(bad)/float64(total)
		if o.Budget > 0 {
			st.BudgetUsed = (float64(bad) / float64(total)) / o.Budget
		}
	}
	st.Met = st.Attained >= st.Target
	return st
}
