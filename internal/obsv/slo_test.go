package obsv

import (
	"strings"
	"testing"
	"time"
)

func TestParseSLOSpec(t *testing.T) {
	objs, err := ParseSLOSpec("p99_ttft_ms=200, p95_request_ms=1500,availability=0.999")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(objs) != 3 {
		t.Fatalf("got %d objectives, want 3", len(objs))
	}
	ttft := objs[0]
	if ttft.Kind != SLOLatency || ttft.Dist != "serve.ttft_ms" || ttft.Quantile != 0.99 || ttft.Threshold != 200 {
		t.Fatalf("ttft objective = %+v", ttft)
	}
	if got := ttft.Budget; got < 0.0099 || got > 0.0101 {
		t.Fatalf("ttft budget = %v, want 0.01", got)
	}
	avail := objs[2]
	if avail.Kind != SLOAvailability || avail.Target != 0.999 ||
		avail.BadCounter != "serve.errors" || avail.TotalCounter != "serve.requests" {
		t.Fatalf("availability objective = %+v", avail)
	}

	for _, bad := range []string{
		"", "p99_ttft_ms", "nope=1", "availability=1.5", "availability=0",
		"p0_ttft_ms=10", "px_ttft_ms=10", "p99_ttft_ms=-5",
		"p99_ttft_ms=200,p99_ttft_ms=300", // duplicate
	} {
		if _, err := ParseSLOSpec(bad); err == nil {
			t.Errorf("spec %q: want error, got nil", bad)
		}
	}
}

func TestParseSLOSpecSubPercentQuantile(t *testing.T) {
	objs, err := ParseSLOSpec("p999_ttft_ms=500")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if q := objs[0].Quantile; q != 0.999 {
		t.Fatalf("p999 quantile = %v, want 0.999", q)
	}
}

func TestHistogramCountAbove(t *testing.T) {
	var h histogram
	for _, v := range []float64{1, 10, 100, 1000} {
		h.observe(v)
	}
	if got := h.countAbove(50); got != 2 {
		t.Fatalf("countAbove(50) = %d, want 2 (100 and 1000)", got)
	}
	if got := h.countAbove(1e15); got != 0 {
		t.Fatalf("countAbove(huge) = %d, want 0", got)
	}
}

func TestDistCountsAboveSumsLabelVariants(t *testing.T) {
	r := New()
	r.Observe("serve.ttft_ms", 10, L("tenant", "a"))
	r.Observe("serve.ttft_ms", 500, L("tenant", "a"))
	r.Observe("serve.ttft_ms", 900, L("tenant", "b"))
	r.Observe("serve.ttft_ms", 20)
	r.Observe("serve.other_ms", 5000) // different series must not leak in
	above, total := r.DistCountsAbove("serve.ttft_ms", 200)
	if total != 4 {
		t.Fatalf("total = %d, want 4", total)
	}
	if above != 2 {
		t.Fatalf("above = %d, want 2 (500 and 900)", above)
	}
}

func TestCounterTotalSumsLabelVariants(t *testing.T) {
	r := New()
	r.Add("serve.requests", 3, L("tenant", "a"))
	r.Add("serve.requests", 2, L("tenant", "b"))
	r.Add("serve.requests", 1)
	r.Add("serve.errors", 7)
	if got := r.CounterTotal("serve.requests"); got != 6 {
		t.Fatalf("CounterTotal = %d, want 6", got)
	}
	var nilR *Recorder
	if got := nilR.CounterTotal("serve.requests"); got != 0 {
		t.Fatalf("nil recorder total = %d, want 0", got)
	}
}

// fakeClock drives an SLOTracker deterministically.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// newTestTracker wires a tracker to a fake clock.
func newTestTracker(r *Recorder, objs []SLOObjective, windows []time.Duration) (*SLOTracker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(5000, 0)}
	tr := NewSLOTracker(r, objs, windows)
	tr.now = clk.now
	return tr, clk
}

func TestSLOTrackerBurnRates(t *testing.T) {
	r := New()
	objs, err := ParseSLOSpec("p99_ttft_ms=100,availability=0.99")
	if err != nil {
		t.Fatal(err)
	}
	tr, clk := newTestTracker(r, objs, []time.Duration{time.Minute, 10 * time.Minute})
	tr.Sample() // zero baseline, as Start() would take

	// Healthy minute: 100 requests, all fast, no errors.
	for i := 0; i < 100; i++ {
		r.Observe("serve.ttft_ms", 10, L("tenant", "a"))
		r.Add("serve.requests", 1)
	}
	clk.advance(time.Minute)
	tr.Sample()
	st := tr.Status()
	if len(st) != 2 {
		t.Fatalf("status len = %d, want 2", len(st))
	}
	if st[0].Burning || st[1].Burning {
		t.Fatalf("healthy system reports burning: %+v", st)
	}
	if b := st[0].Windows[0].Burn; b != 0 {
		t.Fatalf("healthy ttft burn = %v, want 0", b)
	}

	// Bad minute: 100 more requests, 10% slow (10× the p99 budget of 1%),
	// 5% erroring (5× the availability budget of 1%).
	for i := 0; i < 90; i++ {
		r.Observe("serve.ttft_ms", 10)
		r.Add("serve.requests", 1)
	}
	for i := 0; i < 10; i++ {
		r.Observe("serve.ttft_ms", 5000)
		r.Add("serve.requests", 1)
	}
	r.Add("serve.errors", 10)
	clk.advance(time.Minute)
	tr.Sample()
	st = tr.Status()

	ttft := st[0]
	fast := ttft.Windows[0] // 1m window: only the bad minute
	if fast.Burn < 9 || fast.Burn > 11 {
		t.Fatalf("1m ttft burn = %v, want ≈10", fast.Burn)
	}
	slow := ttft.Windows[1] // 10m window: clipped to both minutes → 5% bad
	if !slow.Clipped {
		t.Fatalf("10m window should be clipped with 2m of history: %+v", slow)
	}
	if slow.Burn < 4 || slow.Burn > 6 {
		t.Fatalf("10m ttft burn = %v, want ≈5", slow.Burn)
	}
	if !ttft.Burning {
		t.Fatalf("ttft should be burning in all windows: %+v", ttft)
	}

	// Gauges and the alert transition counter materialised.
	snap := r.Snapshot()
	if v, ok := snap.Gauges[`serve.slo_burn_rate{objective=p99_ttft_ms,window=1m}`]; !ok || v < 9 {
		t.Fatalf("burn gauge missing/low: %v (gauges: %v)", v, snap.Gauges)
	}
	if got := snap.Counters[`serve.slo_alerts{objective=p99_ttft_ms}`]; got != 1 {
		t.Fatalf("alerts = %d, want 1 transition", got)
	}

	// Recovery: a healthy minute clears the 1m window → not all-burning,
	// and re-entering burn later increments the alert counter again.
	for i := 0; i < 100; i++ {
		r.Observe("serve.ttft_ms", 10)
		r.Add("serve.requests", 1)
	}
	clk.advance(time.Minute)
	tr.Sample()
	st = tr.Status()
	if st[0].Burning {
		t.Fatalf("ttft still burning after healthy minute: %+v", st[0])
	}
	if got := r.Snapshot().Counters[`serve.slo_alerts{objective=p99_ttft_ms}`]; got != 1 {
		t.Fatalf("alerts = %d, want still 1 (no new transition)", got)
	}
}

func TestSLOTrackerZeroTraffic(t *testing.T) {
	r := New()
	objs, _ := ParseSLOSpec("p99_ttft_ms=100")
	tr, clk := newTestTracker(r, objs, nil)
	tr.Sample()
	clk.advance(time.Minute)
	tr.Sample()
	st := tr.Status()
	if len(st) != 1 || st[0].Burning {
		t.Fatalf("zero-traffic status = %+v, want one non-burning objective", st)
	}
	for _, w := range st[0].Windows {
		if w.Burn != 0 {
			t.Fatalf("zero-traffic burn = %v, want 0", w.Burn)
		}
	}
}

func TestSLOTrackerHistoryPruned(t *testing.T) {
	r := New()
	objs, _ := ParseSLOSpec("availability=0.999")
	tr, clk := newTestTracker(r, objs, []time.Duration{time.Minute})
	for i := 0; i < 1000; i++ {
		clk.advance(time.Second)
		tr.Sample()
	}
	tr.mu.Lock()
	n := len(tr.history)
	tr.mu.Unlock()
	// 1m window sampled at 1s ⇒ ~60 in-window samples plus the base.
	if n > 70 {
		t.Fatalf("history retained %d samples for a 1m window, want ≤ 70", n)
	}
}

func TestSLOTrackerStartStop(t *testing.T) {
	r := New()
	objs, _ := ParseSLOSpec("availability=0.999")
	tr := NewSLOTracker(r, objs, nil)
	tr.Start(time.Second)
	// Start samples immediately: gauges must exist before any tick.
	snap := r.Snapshot()
	found := false
	for k := range snap.Gauges {
		if strings.HasPrefix(k, "serve.slo_burn_rate{") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no burn-rate gauge after Start; gauges: %v", snap.Gauges)
	}
	tr.Stop()
	tr.Stop() // idempotent
}

func TestSpanTagsStayOutOfRegistry(t *testing.T) {
	r := New()
	sp := r.StartSpan("serve.request", L("tenant", "a")).Tag("req", "r42")
	child := sp.Child("serve.admission")
	child.End()
	sp.End()
	snap := r.Snapshot()
	if _, ok := snap.Spans[`serve.request{tenant=a}`]; !ok {
		t.Fatalf("span series missing; spans: %v", snap.Spans)
	}
	for k := range snap.Spans {
		if strings.Contains(k, "req=") {
			t.Fatalf("request-id tag leaked into registry key %q", k)
		}
	}
}

func TestObserveChildAndRecordSpan(t *testing.T) {
	r := New()
	root := r.StartSpan("serve.request").Tag("req", "r7")
	start := time.Now().Add(-50 * time.Millisecond)
	root.ObserveChild("serve.queue", start, 20*time.Millisecond, nil)
	root.ObserveChild("serve.decode", start.Add(20*time.Millisecond), 30*time.Millisecond,
		map[string]float64{"tokens": 8})
	root.End()
	r.RecordSpan("decode.step", time.Now().Add(-time.Millisecond), time.Millisecond)

	snap := r.Snapshot()
	q, ok := snap.Spans["serve.queue"]
	if !ok || q.Count != 1 {
		t.Fatalf("serve.queue span = %+v, ok=%v", q, ok)
	}
	if q.TotalMS < 19 || q.TotalMS > 21 {
		t.Fatalf("serve.queue total = %v ms, want ≈20", q.TotalMS)
	}
	if _, ok := snap.Spans["decode.step"]; !ok {
		t.Fatalf("decode.step missing from %v", snap.Spans)
	}

	// Nil-safety: inert spans and nil recorders must not panic.
	var nilR *Recorder
	nilR.RecordSpan("x", time.Now(), time.Second)
	Span{}.ObserveChild("y", time.Now(), time.Second, nil)
	Span{}.Tag("a", "b").End()
}
