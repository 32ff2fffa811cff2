package obsv

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SLO tracking: multi-window burn rates computed from the metric registry.
//
// An objective is either a latency quantile bound ("p99_ttft_ms=200": the
// 99th percentile of serve.ttft_ms must stay under 200ms) or an
// availability target ("availability=0.999"). Each objective has an error
// budget — the fraction of requests allowed to violate it (1−quantile for
// latency, 1−target for availability). The tracker periodically snapshots
// cumulative (bad, total) counts from the log-histogram dists / counters
// and reports, per window, the burn rate: the fraction of requests that
// violated the objective divided by the budget. Burn 1.0 means the budget
// is being consumed exactly at the sustainable rate; >1 means it will be
// exhausted early (Google SRE multi-window burn-rate alerting). Alerts are
// *reported* — gauges, counters, /statusz — never enforced: the serving
// path must not shed load because an SLO is burning.

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
// total counter. The live tracker and the offline serve-report both count
// through it.
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

// DefaultSLOWindows are the burn-rate windows sampled when none are given:
// a fast window that reacts within minutes and a slow one that filters
// blips (the classic multi-window pair).
var DefaultSLOWindows = []time.Duration{5 * time.Minute, time.Hour}

// SLOWindowBurn is one window's burn rate for an objective.
type SLOWindowBurn struct {
	Window  string  `json:"window"`
	Burn    float64 `json:"burn"`
	Bad     int64   `json:"bad"`
	Total   int64   `json:"total"`
	Clipped bool    `json:"clipped,omitempty"` // history shorter than window
}

// SLOStatus is the point-in-time state of one objective, rendered on
// /statusz and by `edgellm telemetry serve-report`.
type SLOStatus struct {
	Objective string          `json:"objective"`
	Threshold float64         `json:"threshold,omitempty"` // latency bound (ms)
	Target    float64         `json:"target,omitempty"`    // availability target
	Budget    float64         `json:"budget"`
	Bad       int64           `json:"bad"`   // cumulative violations
	Total     int64           `json:"total"` // cumulative requests
	Windows   []SLOWindowBurn `json:"windows"`
	Burning   bool            `json:"burning"` // every window burning > 1
}

// sloSample is one timestamped snapshot of per-objective cumulative counts.
type sloSample struct {
	t          time.Time
	bad, total []int64 // indexed by objective
}

// SLOTracker samples cumulative violation counts for a set of objectives
// and maintains per-window burn-rate gauges:
//
//	serve.slo_burn_rate{objective=..., window=...}   gauge
//	serve.slo_burning{objective=...}                 gauge (0/1, all windows)
//	serve.slo_alerts{objective=...}                  counter (transitions)
//
// Construct with NewSLOTracker, then either drive Sample() manually (tests)
// or Start() a background sampler. Safe for concurrent use.
type SLOTracker struct {
	r       *Recorder
	objs    []SLOObjective
	windows []time.Duration
	now     func() time.Time

	mu      sync.Mutex
	history []sloSample
	burning []bool
	status  []SLOStatus

	stop chan struct{}
	done chan struct{}
}

// NewSLOTracker builds a tracker reading from r. A nil windows slice uses
// DefaultSLOWindows. The tracker holds history for the longest window.
func NewSLOTracker(r *Recorder, objs []SLOObjective, windows []time.Duration) *SLOTracker {
	if len(windows) == 0 {
		windows = DefaultSLOWindows
	}
	windows = append([]time.Duration(nil), windows...)
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	return &SLOTracker{
		r:       r,
		objs:    append([]SLOObjective(nil), objs...),
		windows: windows,
		now:     time.Now,
		burning: make([]bool, len(objs)),
	}
}

// Sample takes one snapshot and recomputes every burn-rate gauge. It is
// deterministic given the registry state and the injected clock, which is
// how the tests drive it.
func (t *SLOTracker) Sample() {
	if t == nil || t.r == nil {
		return
	}
	now := t.now()
	s := sloSample{t: now, bad: make([]int64, len(t.objs)), total: make([]int64, len(t.objs))}
	for i, o := range t.objs {
		s.bad[i], s.total[i] = o.Counts(t.r)
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.history = append(t.history, s)
	t.pruneLocked(now)

	status := make([]SLOStatus, len(t.objs))
	for i, o := range t.objs {
		st := SLOStatus{
			Objective: o.Name,
			Threshold: o.Threshold,
			Target:    o.Target,
			Budget:    o.Budget,
			Bad:       s.bad[i],
			Total:     s.total[i],
		}
		allBurning := true
		for _, w := range t.windows {
			wb := t.windowBurnLocked(i, o, s, w)
			st.Windows = append(st.Windows, wb)
			if !(wb.Burn > 1) {
				allBurning = false
			}
			t.r.SetGauge("serve.slo_burn_rate", wb.Burn,
				L("objective", o.Name), L("window", wb.Window))
		}
		st.Burning = allBurning
		if allBurning && !t.burning[i] {
			t.r.Add("serve.slo_alerts", 1, L("objective", o.Name))
		}
		t.burning[i] = allBurning
		if allBurning {
			t.r.SetGauge("serve.slo_burning", 1, L("objective", o.Name))
		} else {
			t.r.SetGauge("serve.slo_burning", 0, L("objective", o.Name))
		}
		status[i] = st
	}
	t.status = status
}

// windowBurnLocked computes the burn rate of objective i over window w,
// ending at the newest sample s. When history is shorter than the window
// the whole history is used and the result is marked Clipped — this keeps
// gauges live from the first sample instead of staying blank for an hour.
func (t *SLOTracker) windowBurnLocked(i int, o SLOObjective, s sloSample, w time.Duration) SLOWindowBurn {
	cut := s.t.Add(-w)
	// Base is the newest sample at or before the window edge; history is
	// ascending in time. If every sample is inside the window, the history
	// is shorter than the window — use the oldest and mark the burn clipped.
	base := t.history[0]
	clipped := base.t.After(cut)
	for _, h := range t.history {
		if h.t.After(cut) {
			break
		}
		base = h
	}
	bad := s.bad[i] - base.bad[i]
	total := s.total[i] - base.total[i]
	wb := SLOWindowBurn{Window: windowLabel(w), Bad: bad, Total: total, Clipped: clipped}
	if total > 0 && o.Budget > 0 {
		wb.Burn = (float64(bad) / float64(total)) / o.Budget
	}
	return wb
}

// pruneLocked drops samples older than the longest window, always keeping
// one sample beyond the edge as the subtraction base.
func (t *SLOTracker) pruneLocked(now time.Time) {
	cut := now.Add(-t.windows[len(t.windows)-1])
	keep := 0
	for keep < len(t.history)-1 && t.history[keep+1].t.Before(cut) {
		keep++
	}
	if keep > 0 {
		t.history = append(t.history[:0], t.history[keep:]...)
	}
}

// Status returns the per-objective state computed by the latest Sample.
func (t *SLOTracker) Status() []SLOStatus {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SLOStatus, len(t.status))
	copy(out, t.status)
	return out
}

// Start launches a background goroutine sampling every interval (clamped
// up to 1s). It samples once immediately so gauges exist before the first
// tick. Stop halts it.
func (t *SLOTracker) Start(interval time.Duration) {
	if t == nil {
		return
	}
	if interval < time.Second {
		interval = time.Second
	}
	t.stop = make(chan struct{})
	t.done = make(chan struct{})
	t.Sample()
	go func() {
		defer close(t.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-tick.C:
				t.Sample()
			}
		}
	}()
}

// Stop halts the background sampler started by Start and takes a final
// sample so the last burn-rate state is current.
func (t *SLOTracker) Stop() {
	if t == nil || t.stop == nil {
		return
	}
	close(t.stop)
	<-t.done
	t.stop = nil
	t.Sample()
}

// windowLabel renders a window duration compactly ("5m", "1h", "90s").
func windowLabel(w time.Duration) string {
	switch {
	case w%time.Hour == 0:
		return strconv.Itoa(int(w/time.Hour)) + "h"
	case w%time.Minute == 0:
		return strconv.Itoa(int(w/time.Minute)) + "m"
	default:
		return strconv.Itoa(int(w/time.Second)) + "s"
	}
}
