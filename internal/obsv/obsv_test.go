package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsInert(t *testing.T) {
	var r *Recorder
	r.Add("c", 1)
	r.SetGauge("g", 2)
	r.Observe("d", 3)
	r.SetEmitter(nil)
	r.EmitSummary()
	r.EmitManifest(Manifest{})
	sp := r.StartSpan("s")
	sp.End()
	sp.EndWith(map[string]float64{"x": 1})
	snap := r.Snapshot()
	if len(snap.Counters) != 0 || len(snap.Spans) != 0 {
		t.Fatal("nil recorder must stay empty")
	}
}

func TestGlobalDisabledHelpers(t *testing.T) {
	SetGlobal(nil)
	if Enabled() {
		t.Fatal("global must start disabled")
	}
	Add("c", 1)
	SetGauge("g", 1)
	Observe("d", 1)
	StartSpan("s").End()

	r := New()
	SetGlobal(r)
	defer SetGlobal(nil)
	if !Enabled() {
		t.Fatal("global must be enabled after SetGlobal")
	}
	Add("c", 2)
	StartSpan("s", L("k", "v")).End()
	snap := r.Snapshot()
	if snap.Counters["c"] != 2 {
		t.Fatalf("counter = %d, want 2", snap.Counters["c"])
	}
	// Labeled spans form their own series, keyed name{k=v}.
	if snap.Spans["s{k=v}"].Count != 1 {
		t.Fatalf("span count = %d, want 1 (keys: %v)", snap.Spans["s{k=v}"].Count, snap.Spans)
	}
}

func TestCountersGaugesDists(t *testing.T) {
	r := New()
	r.Add("evals", 5)
	r.Add("evals", 7)
	r.SetGauge("lr", 0.01)
	r.SetGauge("lr", 0.02)
	r.Observe("lat", 3)
	r.Observe("lat", 1)
	r.Observe("lat", 2)

	snap := r.Snapshot()
	if snap.Counters["evals"] != 12 {
		t.Fatalf("counter = %d", snap.Counters["evals"])
	}
	if snap.Gauges["lr"] != 0.02 {
		t.Fatalf("gauge = %v", snap.Gauges["lr"])
	}
	d := snap.Dists["lat"]
	if d.Count != 3 || d.Min != 1 || d.Max != 3 || d.Sum != 6 {
		t.Fatalf("dist = %+v", d)
	}
	if d.Mean() != 2 {
		t.Fatalf("mean = %v", d.Mean())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetEmitter(NewEmitter(&buf))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Add("n", 1)
				r.Observe("v", float64(i))
				r.StartSpan("work").End()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Counters["n"] != 1600 {
		t.Fatalf("counter = %d, want 1600", snap.Counters["n"])
	}
	if snap.Spans["work"].Count != 1600 {
		t.Fatalf("spans = %d, want 1600", snap.Spans["work"].Count)
	}
	// Every emitted line must be standalone valid JSON.
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d invalid JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 3200 { // 1600 metrics + 1600 spans
		t.Fatalf("lines = %d, want 3200", lines)
	}
}

func TestJSONLStream(t *testing.T) {
	r := New()
	var buf bytes.Buffer
	r.SetEmitter(NewEmitter(&buf))
	man := NewManifest("test", 42, map[string]int{"dim": 32})
	r.EmitManifest(man)
	sp := r.StartSpan("pipeline.tune", L("experiment", "T1"))
	time.Sleep(time.Millisecond)
	sp.EndWith(map[string]float64{"tok_per_sec": 123})
	r.Observe("train.grad_norm", 0.5)
	r.EmitSummary()

	var events []Event
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("invalid JSONL line: %v", err)
		}
		events = append(events, ev)
	}
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	if events[0].Kind != KindManifest || events[0].Manifest == nil {
		t.Fatalf("first line must be the manifest, got %+v", events[0])
	}
	if events[0].Manifest.Seed != 42 || events[0].Manifest.GoVersion == "" {
		t.Fatalf("manifest incomplete: %+v", events[0].Manifest)
	}
	if events[1].Kind != KindSpan || events[1].DurMS <= 0 || events[1].Fields["tok_per_sec"] != 123 {
		t.Fatalf("bad span event: %+v", events[1])
	}
	if events[1].Labels["experiment"] != "T1" {
		t.Fatalf("span labels lost: %+v", events[1].Labels)
	}
	if events[2].Kind != KindMetric || events[2].Value != 0.5 {
		t.Fatalf("bad metric event: %+v", events[2])
	}
	if events[1].SpanID == 0 {
		t.Fatalf("span event must carry its span id: %+v", events[1])
	}
	if events[3].Kind != KindSummary || events[3].Summary == nil ||
		events[3].Summary.Spans["pipeline.tune{experiment=T1}"].Count != 1 {
		t.Fatalf("bad summary event: %+v", events[3])
	}
}

func TestManifestHashStable(t *testing.T) {
	type cfg struct{ A, B int }
	h1 := HashConfig(cfg{1, 2})
	h2 := HashConfig(cfg{1, 2})
	h3 := HashConfig(cfg{1, 3})
	if h1 != h2 {
		t.Fatal("hash must be deterministic")
	}
	if h1 == h3 {
		t.Fatal("hash must depend on config values")
	}
	if HashConfig(make(chan int)) != "unhashable" {
		t.Fatal("unencodable config must degrade gracefully")
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, bytes.ErrTooLarge
}

func TestEmitterRetainsFirstError(t *testing.T) {
	fw := &failWriter{}
	e := NewEmitter(fw)
	e.Emit(Event{Kind: KindMetric})
	e.Emit(Event{Kind: KindMetric})
	if e.Err() == nil {
		t.Fatal("write error must surface")
	}
	if fw.n != 1 {
		t.Fatalf("emitter must stop writing after the first error, wrote %d times", fw.n)
	}
}
