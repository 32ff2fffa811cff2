// Package obsv is the repository's observability substrate: hierarchical
// monotonic timer spans, labeled counter/gauge/distribution registries with
// log-histogram quantiles, a per-run manifest (config hash, seed, git
// revision, Go version), a JSONL event emitter, a Chrome trace-event
// exporter, and a live HTTP endpoint (Prometheus text + expvar + pprof).
//
// The package is built around one invariant: when observability is
// disabled (the default), the hot-path cost is a single atomic pointer
// load and a nil check — no clock reads, no allocation, no locking. All
// instrumented code paths (train.Trainer.Step, adapt.Tuner.Step, the
// core.Pipeline stages, the hwsim schedule search) call the nil-safe
// package-level helpers below and therefore pay effectively nothing until
// a Recorder is installed with SetGlobal. A test and a benchmark guard
// this (TestDisabledPathIsAllocFree, BenchmarkDisabled*).
//
// Concurrency: every Recorder method is safe for concurrent use, which the
// parallel experiment runner (core.RunAll) relies on. Counters commute, so
// aggregate values are deterministic even though JSONL event interleaving
// is not.
package obsv

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Label is one key=value annotation attached to spans and events. Labeled
// metrics form distinct series per label set (e.g. per-layer gauges).
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing integer metric.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a last-value-wins float metric.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v as the gauge's current value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the gauge's current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DistStat summarises an observed value stream: moments plus quantile
// estimates from a fixed-bucket log histogram (see hist.go). Quantiles are
// estimated to within one histogram bucket (±~33% relative) for positive
// values; non-positive observations land in the underflow bucket and
// resolve to Min.
type DistStat struct {
	Count int64   `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	P99   float64 `json:"p99,omitempty"`
}

// Mean returns the stream mean (0 for an empty stream).
func (d DistStat) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// dist accumulates a DistStat plus its log histogram under a mutex
// (observations are rare enough on instrumented paths that a lock beats
// the complexity of sharding).
type dist struct {
	mu   sync.Mutex
	s    DistStat
	hist histogram
}

func (d *dist) observe(v float64) {
	d.mu.Lock()
	if d.s.Count == 0 || v < d.s.Min {
		d.s.Min = v
	}
	if d.s.Count == 0 || v > d.s.Max {
		d.s.Max = v
	}
	d.s.Count++
	d.s.Sum += v
	d.hist.observe(v)
	d.mu.Unlock()
}

func (d *dist) countsAbove(threshold float64) (above, total int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.hist.countAbove(threshold), d.s.Count
}

func (d *dist) stat() DistStat {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.s
	if s.Count > 0 {
		s.P50 = d.hist.quantile(0.50, s.Min, s.Max)
		s.P95 = d.hist.quantile(0.95, s.Min, s.Max)
		s.P99 = d.hist.quantile(0.99, s.Min, s.Max)
	}
	return s
}

// SpanStat aggregates all completed spans of one (name, labels) series.
type SpanStat struct {
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	P50MS   float64 `json:"p50_ms,omitempty"`
	P95MS   float64 `json:"p95_ms,omitempty"`
	P99MS   float64 `json:"p99_ms,omitempty"`
	MaxMS   float64 `json:"max_ms,omitempty"`
}

// entry pairs a metric with its identity: the bare name plus the labels
// that distinguish this series (the map key is seriesKey(name, labels)).
type counterEntry struct {
	name   string
	labels []Label
	c      Counter
}

type gaugeEntry struct {
	name   string
	labels []Label
	g      Gauge
}

type distEntry struct {
	name   string
	labels []Label
	d      dist
}

// Recorder is the central registry: it owns the metric maps and the
// optional JSONL emitter and Chrome trace writer. The zero
// value is not usable; construct with New. A nil *Recorder is a valid
// no-op receiver for every method, which is what makes the disabled path
// free.
type Recorder struct {
	mu       sync.RWMutex
	counters map[string]*counterEntry
	gauges   map[string]*gaugeEntry
	dists    map[string]*distEntry
	spans    map[string]*distEntry

	emitter atomic.Pointer[Emitter]
	chrome  atomic.Pointer[TraceWriter]
}

// New returns an empty Recorder.
func New() *Recorder {
	return &Recorder{
		counters: map[string]*counterEntry{},
		gauges:   map[string]*gaugeEntry{},
		dists:    map[string]*distEntry{},
		spans:    map[string]*distEntry{},
	}
}

// SetEmitter attaches a JSONL emitter; nil detaches. Safe to call
// concurrently with recording.
func (r *Recorder) SetEmitter(e *Emitter) {
	if r == nil {
		return
	}
	r.emitter.Store(e)
}

// SetTraceWriter attaches a Chrome trace-event exporter that receives
// every completed span as a complete ("X") event and every gauge update /
// distribution sample as a counter ("C") event; nil detaches. The caller
// owns the writer and must Close it to finish the JSON array.
func (r *Recorder) SetTraceWriter(tw *TraceWriter) {
	if r == nil {
		return
	}
	r.chrome.Store(tw)
}

// seriesKey is the canonical registry key of a (name, labels) series:
// the bare name, or name{k=v,...} with keys sorted.
func seriesKey(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	sort.Strings(parts)
	return name + "{" + strings.Join(parts, ",") + "}"
}

// copyLabels snapshots a variadic label slice for retention in the registry.
func copyLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	return append([]Label(nil), labels...)
}

// counter returns the named counter series, creating it on first use.
func (r *Recorder) counter(name string, labels []Label) *Counter {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e := r.counters[key]
	r.mu.RUnlock()
	if e != nil {
		return &e.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.counters[key]; e == nil {
		e = &counterEntry{name: name, labels: copyLabels(labels)}
		r.counters[key] = e
	}
	return &e.c
}

// gauge returns the named gauge series, creating it on first use.
func (r *Recorder) gauge(name string, labels []Label) *Gauge {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e := r.gauges[key]
	r.mu.RUnlock()
	if e != nil {
		return &e.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = r.gauges[key]; e == nil {
		e = &gaugeEntry{name: name, labels: copyLabels(labels)}
		r.gauges[key] = e
	}
	return &e.g
}

func (r *Recorder) dist(m map[string]*distEntry, name string, labels []Label) *dist {
	key := seriesKey(name, labels)
	r.mu.RLock()
	e := m[key]
	r.mu.RUnlock()
	if e != nil {
		return &e.d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if e = m[key]; e == nil {
		e = &distEntry{name: name, labels: copyLabels(labels)}
		m[key] = e
	}
	return &e.d
}

// Add increments the named counter series. No-op on a nil Recorder.
func (r *Recorder) Add(name string, delta int64, labels ...Label) {
	if r == nil {
		return
	}
	r.counter(name, labels).Add(delta)
}

// SetGauge stores the named gauge series' value and, when a Chrome trace
// writer is attached, emits a counter event so the series is visible as a
// track in the trace viewer. No-op on a nil Recorder.
func (r *Recorder) SetGauge(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.gauge(name, labels).Set(v)
	if tw := r.chrome.Load(); tw != nil {
		tw.Counter(seriesKey(name, labels), v)
	}
}

// Observe records one sample of the named distribution series and, when an
// emitter or trace writer is attached, writes a metric / counter event.
// No-op on a nil Recorder.
func (r *Recorder) Observe(name string, v float64, labels ...Label) {
	if r == nil {
		return
	}
	r.dist(r.dists, name, labels).observe(v)
	if e := r.emitter.Load(); e != nil {
		e.Emit(Event{
			TimeUnixNano: time.Now().UnixNano(),
			Kind:         KindMetric,
			Name:         name,
			Value:        v,
			Labels:       labelMap(labels),
		})
	}
	if tw := r.chrome.Load(); tw != nil {
		tw.Counter(seriesKey(name, labels), v)
	}
}

// ObserveSpan records a completed span duration (in milliseconds) directly
// into the span registry, without timing anything. Offline tools use it to
// replay JSONL streams back into a Recorder (see cmd/edgellm telemetry).
func (r *Recorder) ObserveSpan(name string, ms float64, labels ...Label) {
	if r == nil {
		return
	}
	r.dist(r.spans, name, labels).observe(ms)
}

// spanIDs and trackIDs allocate process-unique span identities and trace
// tracks ("tid" in the Chrome trace format; spans on the same track nest
// by time containment in trace viewers).
var (
	spanIDs  atomic.Uint64
	trackIDs atomic.Uint64
)

// Span is a live timing region returned by StartSpan. The zero Span (from
// a nil Recorder) is valid: End/EndWith are no-ops and Child falls back to
// starting a root span on the global recorder, so parent threading never
// needs nil checks.
type Span struct {
	r      *Recorder
	name   string
	start  time.Time
	labels []Label
	tags   []Label
	id     uint64
	parent uint64
	tid    uint64
}

// StartSpan begins a root monotonic timing region on a new trace track. On
// a nil Recorder it returns an inert zero Span without reading the clock.
func (r *Recorder) StartSpan(name string, labels ...Label) Span {
	if r == nil {
		return Span{}
	}
	return Span{
		r: r, name: name, start: time.Now(), labels: labels,
		id: spanIDs.Add(1), tid: trackIDs.Add(1),
	}
}

// Tag attaches an emitted-only annotation to the span and returns the
// tagged copy. Tags appear in the JSONL event and Chrome trace args of the
// span (and of children, which inherit them) but are NOT part of the
// registry series key, so high-cardinality values such as request IDs can
// be attached to traces without creating one metric series per request.
func (s Span) Tag(key, value string) Span {
	if s.r == nil {
		return s
	}
	tags := make([]Label, len(s.tags)+1)
	copy(tags, s.tags)
	tags[len(s.tags)] = Label{Key: key, Value: value}
	s.tags = tags
	return s
}

// Child begins a sub-span on the same trace track, so it nests under s in
// chrome://tracing / Perfetto. On a span without a recorder (zero Span) it
// falls back to a root span on the global recorder — inert when disabled —
// which lets instrumented code thread optional parents unconditionally.
func (s Span) Child(name string, labels ...Label) Span {
	if s.r == nil {
		return Global().StartSpan(name, labels...)
	}
	return Span{
		r: s.r, name: name, start: time.Now(), labels: labels, tags: s.tags,
		id: spanIDs.Add(1), parent: s.id, tid: s.tid,
	}
}

// ChildTrack begins a sub-span on a NEW trace track. Use it for children
// that run concurrently with siblings (the experiment runner's fan-out):
// complete events on one track must not overlap in time, so concurrent
// branches each get their own. Parent linkage is preserved in the emitted
// events' parent field.
func (s Span) ChildTrack(name string, labels ...Label) Span {
	if s.r == nil {
		return Global().StartSpan(name, labels...)
	}
	return Span{
		r: s.r, name: name, start: time.Now(), labels: labels, tags: s.tags,
		id: spanIDs.Add(1), parent: s.id, tid: trackIDs.Add(1),
	}
}

// ObserveChild records an already-measured child interval of s: a span that
// ran from start for dur, on s's track, with s's tags inherited. Use it to
// reconstruct phases that were timed elsewhere (e.g. queue wait and decode
// time measured inside the scheduler step loop) without holding a live Span
// across goroutines.
func (s Span) ObserveChild(name string, start time.Time, dur time.Duration, fields map[string]float64, labels ...Label) {
	if s.r == nil {
		return
	}
	child := Span{
		r: s.r, name: name, start: start, labels: labels, tags: s.tags,
		id: spanIDs.Add(1), parent: s.id, tid: s.tid,
	}
	child.endAt(dur, fields)
}

// RecordSpan records a completed root span that ran from start for dur.
// Instrumented loops that cannot afford a live Span per iteration (the
// scheduler's 0 allocs/token step loop samples every Nth step) use it to
// file timing after the fact.
func (r *Recorder) RecordSpan(name string, start time.Time, dur time.Duration, labels ...Label) {
	if r == nil {
		return
	}
	sp := Span{
		r: r, name: name, start: start, labels: labels,
		id: spanIDs.Add(1), tid: trackIDs.Add(1),
	}
	sp.endAt(dur, nil)
}

// ID returns the span's process-unique id (0 for an inert span).
func (s Span) ID() uint64 { return s.id }

// End completes the span with no extra fields.
func (s Span) End() { s.EndWith(nil) }

// EndWith completes the span, attaching numeric fields (e.g. tokens/sec)
// to the emitted event.
func (s Span) EndWith(fields map[string]float64) {
	if s.r == nil {
		return
	}
	s.endAt(time.Since(s.start), fields)
}

// endAt completes the span with an externally supplied duration. Registry
// aggregation keys on labels only; tags join labels in the emitted event
// and the Chrome trace args.
func (s Span) endAt(dur time.Duration, fields map[string]float64) {
	ms := float64(dur) / float64(time.Millisecond)
	s.r.dist(s.r.spans, s.name, s.labels).observe(ms)
	annotated := s.labels
	if len(s.tags) > 0 {
		annotated = make([]Label, 0, len(s.labels)+len(s.tags))
		annotated = append(append(annotated, s.labels...), s.tags...)
	}
	if e := s.r.emitter.Load(); e != nil {
		e.Emit(Event{
			TimeUnixNano: s.start.UnixNano(),
			Kind:         KindSpan,
			Name:         s.name,
			DurMS:        ms,
			Labels:       labelMap(annotated),
			Fields:       fields,
			SpanID:       s.id,
			ParentID:     s.parent,
		})
	}
	if tw := s.r.chrome.Load(); tw != nil {
		tw.Span(s.name, s.start, ms, s.tid, s.id, s.parent, annotated, fields)
	}
}

// CounterTotal sums the named counter across every label variant (the bare
// series plus all name{k=v,...} series). SLO objectives and CLI summaries
// use it to treat per-tenant counters as one aggregate stream.
func (r *Recorder) CounterTotal(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	var total int64
	for _, e := range r.counters {
		if e.name == name {
			total += e.c.Value()
		}
	}
	return total
}

// DistCountsAbove reports, summed across every label variant of the named
// distribution, how many observations exceeded threshold and how many were
// recorded in total. Resolution is one log-histogram bucket: a sample
// counts as "above" only when it landed in a bucket strictly above the
// bucket containing threshold, so the answer is exact up to the histogram's
// ±~33% bucket width (samples sharing the threshold's bucket count as
// within-objective). This is what a latency SLO objective counts.
func (r *Recorder) DistCountsAbove(name string, threshold float64) (above, total int64) {
	if r == nil {
		return 0, 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.dists {
		if e.name != name {
			continue
		}
		a, t := e.d.countsAbove(threshold)
		above += a
		total += t
	}
	return above, total
}

// Summary is a point-in-time snapshot of every registered metric series,
// keyed by seriesKey (the bare name, or name{k=v,...}).
type Summary struct {
	Counters map[string]int64    `json:"counters,omitempty"`
	Gauges   map[string]float64  `json:"gauges,omitempty"`
	Dists    map[string]DistStat `json:"dists,omitempty"`
	Spans    map[string]SpanStat `json:"spans,omitempty"`
}

// Snapshot captures all counters, gauges, distributions, and span
// aggregates. Safe during concurrent recording; nil Recorder yields an
// empty Summary.
func (r *Recorder) Snapshot() Summary {
	s := Summary{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Dists:    map[string]DistStat{},
		Spans:    map[string]SpanStat{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for key, e := range r.counters {
		s.Counters[key] = e.c.Value()
	}
	for key, e := range r.gauges {
		s.Gauges[key] = e.g.Value()
	}
	for key, e := range r.dists {
		s.Dists[key] = e.d.stat()
	}
	for key, e := range r.spans {
		st := e.d.stat()
		s.Spans[key] = SpanStat{
			Count: st.Count, TotalMS: st.Sum,
			P50MS: st.P50, P95MS: st.P95, P99MS: st.P99, MaxMS: st.Max,
		}
	}
	return s
}

// EmitSummary writes the current Snapshot as a single summary event (one
// JSONL line) if an emitter is attached.
func (r *Recorder) EmitSummary() {
	if r == nil {
		return
	}
	e := r.emitter.Load()
	if e == nil {
		return
	}
	snap := r.Snapshot()
	e.Emit(Event{
		TimeUnixNano: time.Now().UnixNano(),
		Kind:         KindSummary,
		Summary:      &snap,
	})
}

// EmitManifest writes the run manifest as one JSONL line if an emitter is
// attached.
func (r *Recorder) EmitManifest(m Manifest) {
	if r == nil {
		return
	}
	if e := r.emitter.Load(); e != nil {
		e.Emit(Event{
			TimeUnixNano: time.Now().UnixNano(),
			Kind:         KindManifest,
			Manifest:     &m,
		})
	}
}

// --- global recorder ---------------------------------------------------------

// global holds the process-wide Recorder; nil means disabled.
var global atomic.Pointer[Recorder]

// SetGlobal installs r as the process-wide recorder; nil disables
// observability.
func SetGlobal(r *Recorder) {
	global.Store(r)
}

// Global returns the installed recorder, or nil when disabled. All
// Recorder methods accept a nil receiver, so call sites never need a nil
// check of their own.
func Global() *Recorder { return global.Load() }

// Enabled reports whether a global recorder is installed. Instrumented
// code may use it to skip metric computation that has a cost of its own
// (e.g. an extra gradient-norm pass).
func Enabled() bool { return global.Load() != nil }

// StartSpan opens a root span on the global recorder (inert when disabled).
func StartSpan(name string, labels ...Label) Span { return global.Load().StartSpan(name, labels...) }

// Add increments a counter on the global recorder (no-op when disabled).
func Add(name string, delta int64, labels ...Label) { global.Load().Add(name, delta, labels...) }

// SetGauge sets a gauge on the global recorder (no-op when disabled).
func SetGauge(name string, v float64, labels ...Label) { global.Load().SetGauge(name, v, labels...) }

// Observe records a distribution sample on the global recorder (no-op
// when disabled).
func Observe(name string, v float64, labels ...Label) { global.Load().Observe(name, v, labels...) }

// RecordSpan files a completed span on the global recorder (no-op when
// disabled).
func RecordSpan(name string, start time.Time, dur time.Duration, labels ...Label) {
	global.Load().RecordSpan(name, start, dur, labels...)
}

// --- small helpers -----------------------------------------------------------

func labelMap(labels []Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}
