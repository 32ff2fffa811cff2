package obsv

import (
	"math"
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

// TestSLOObjectiveStatus: Status reads an objective's cumulative counts
// from a recorder and judges them as serve-report does: zero traffic is
// attained 1 with no budget used, attained exactly at the target is met,
// and a latency dist split by label is summed as DistCountsAbove sums it.
func TestSLOObjectiveStatus(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		record     func(r *Recorder)
		want       SLOStatus
	}{{
		name: "latency",
		spec: "p99_ttft_ms=100",
		record: func(r *Recorder) {
			for i := 0; i < 190; i++ {
				r.Observe("serve.ttft_ms", 10)
			}
			for i := 0; i < 10; i++ {
				r.Observe("serve.ttft_ms", 5000)
			}
		},
		want: SLOStatus{Objective: "p99_ttft_ms", Target: 0.99, Threshold: 100, Budget: 0.01,
			Bad: 10, Total: 200, Attained: 0.95, BudgetUsed: 5, Met: false},
	}, {
		name: "availability",
		spec: "availability=0.99",
		record: func(r *Recorder) {
			r.Add("serve.requests", 200)
			r.Add("serve.errors", 1)
		},
		want: SLOStatus{Objective: "availability", Target: 0.99, Budget: 0.01,
			Bad: 1, Total: 200, Attained: 0.995, BudgetUsed: 0.5, Met: true},
	}, {
		name:   "zero traffic",
		spec:   "p99_ttft_ms=100",
		record: func(r *Recorder) { r.Observe("serve.other_ms", 5000) },
		want: SLOStatus{Objective: "p99_ttft_ms", Target: 0.99, Threshold: 100, Budget: 0.01,
			Attained: 1, Met: true},
	}, {
		name: "attained equals target",
		spec: "p99_ttft_ms=100",
		record: func(r *Recorder) {
			for i := 0; i < 99; i++ {
				r.Observe("serve.ttft_ms", 10)
			}
			r.Observe("serve.ttft_ms", 5000)
		},
		want: SLOStatus{Objective: "p99_ttft_ms", Target: 0.99, Threshold: 100, Budget: 0.01,
			Bad: 1, Total: 100, Attained: 0.99, BudgetUsed: 1, Met: true},
	}, {
		name: "label-split dist",
		spec: "p75_ttft_ms=200",
		record: func(r *Recorder) {
			r.Observe("serve.ttft_ms", 10, L("tenant", "a"))
			r.Observe("serve.ttft_ms", 500, L("tenant", "a"))
			r.Observe("serve.ttft_ms", 900, L("tenant", "b"))
			r.Observe("serve.ttft_ms", 20)
			r.Observe("serve.other_ms", 5000)
		},
		want: SLOStatus{Objective: "p75_ttft_ms", Target: 0.75, Threshold: 200, Budget: 0.25,
			Bad: 2, Total: 4, Attained: 0.5, BudgetUsed: 2, Met: false},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			objs, err := ParseSLOSpec(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			r := New()
			tc.record(r)
			got := objs[0].Status(r)
			near := func(a, b float64) bool { return math.Abs(a-b) < 1e-12 }
			w := tc.want
			if got.Objective != w.Objective || got.Target != w.Target || got.Threshold != w.Threshold ||
				!near(got.Budget, w.Budget) || got.Bad != w.Bad || got.Total != w.Total ||
				got.Attained != w.Attained || !near(got.BudgetUsed, w.BudgetUsed) || got.Met != w.Met {
				t.Fatalf("Status = %+v, want %+v", got, w)
			}
		})
	}
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
