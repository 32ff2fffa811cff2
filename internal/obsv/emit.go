package obsv

import (
	"encoding/json"
	"io"
	"sync"
)

// Event kinds as they appear in the JSONL "kind" field.
const (
	KindManifest = "manifest"
	KindSpan     = "span"
	KindMetric   = "metric"
	KindSummary  = "summary"
)

// Event is one JSONL line of the metrics stream. The schema is
// intentionally flat and self-describing:
//
//	{"t":<unix nanos>,"kind":"manifest","manifest":{...}}          run header
//	{"t":...,"kind":"span","name":"pipeline.tune","dur_ms":...,
//	 "labels":{...},"fields":{"tok_per_sec":...}}                  timing region
//	{"t":...,"kind":"metric","name":"train.grad_norm","value":...} one sample
//	{"t":...,"kind":"summary","summary":{...}}                     final aggregates
type Event struct {
	TimeUnixNano int64              `json:"t"`
	Kind         string             `json:"kind"`
	Name         string             `json:"name,omitempty"`
	DurMS        float64            `json:"dur_ms,omitempty"`
	Value        float64            `json:"value,omitempty"`
	Labels       map[string]string  `json:"labels,omitempty"`
	Fields       map[string]float64 `json:"fields,omitempty"`
	Manifest     *Manifest          `json:"manifest,omitempty"`
	Summary      *Summary           `json:"summary,omitempty"`
	Govern       *GovernRecord      `json:"govern,omitempty"`

	// SpanID/ParentID link span events into the run's span tree; 0 means
	// "none" (root span, or a pre-hierarchy stream).
	SpanID   uint64 `json:"span,omitempty"`
	ParentID uint64 `json:"parent,omitempty"`
}

// Emitter serialises events as JSON lines to a writer. All methods are
// safe for concurrent use; lines are never interleaved.
type Emitter struct {
	mu  sync.Mutex
	enc *json.Encoder
	err error
}

// NewEmitter wraps w in a JSONL emitter.
func NewEmitter(w io.Writer) *Emitter {
	return &Emitter{enc: json.NewEncoder(w)}
}

// Emit writes one event as a JSON line. The first write error is retained
// and reported by Err; subsequent emits become no-ops so a dead sink
// cannot slow the run down with repeated failing writes.
func (e *Emitter) Emit(ev Event) {
	if e == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return
	}
	e.err = e.enc.Encode(ev)
}

// Err returns the first write error, if any.
func (e *Emitter) Err() error {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}
