package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// the program. Parent is the id of the span that caused it (0 for a root);
// spans of one request share Req.
type span struct {
	ID, Parent int
	Name, Req  string
	Start, End time.Time
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured by the caller.
func (t *tracer) record(name string, parent int, req string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return len(t.spans)
}

// timed runs f inside a span.
func (t *tracer) timed(name string, parent int, f func()) {
	id := t.begin(name, parent, "")
	f()
	t.end(id)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfStat is the per-name aggregate of the self-time report.
type selfStat struct {
	Name          string
	Count         int
	Total, SelfMS float64
}

// selfTimes computes, per span name, total duration and self time: a span's
// duration minus the part of its interval that its child spans cover
// (overlapping children are counted once).
func selfTimes(spans []span) []selfStat {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*selfStat)
	for _, s := range spans {
		if s.End.IsZero() {
			continue
		}
		dur := s.End.Sub(s.Start)
		st := byName[s.Name]
		if st == nil {
			st = &selfStat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.Total += ms(dur)
		st.SelfMS += ms(dur - covered(s, children[s.ID]))
	}
	out := make([]selfStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	var total time.Duration
	cursor := p.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if hi.IsZero() || hi.After(p.End) {
			hi = p.End
		}
		if lo.Before(cursor) {
			lo = cursor
		}
		if hi.After(lo) {
			total += hi.Sub(lo)
			cursor = hi
		}
	}
	return total
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// writeSelfReport prints the self-time table, largest self time first.
func writeSelfReport(w io.Writer, spans []span) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, st := range selfTimes(spans) {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", st.Name, st.Count, st.Total, st.SelfMS)
	}
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as a Chrome trace-event JSON array
// (chrome://tracing, Perfetto). Each root span and its descendants share a
// lane, so nesting renders as a flame.
func writeChromeTrace(w io.Writer, spans []span) error {
	if len(spans) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	origin := spans[0].Start
	root := make([]int, len(spans)+1)
	events := make([]traceEvent, 0, len(spans))
	for _, s := range spans {
		root[s.ID] = s.ID
		if s.Parent != 0 {
			root[s.ID] = root[s.Parent] // parents are always recorded first
		}
		if s.End.IsZero() {
			continue
		}
		args := map[string]any{"id": s.ID}
		if s.Parent != 0 {
			args["parent"] = s.Parent
		}
		if s.Req != "" {
			args["req"] = s.Req
		}
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", PID: 1, TID: root[s.ID],
			TS:   float64(s.Start.Sub(origin)) / float64(time.Microsecond),
			Dur:  float64(s.End.Sub(s.Start)) / float64(time.Microsecond),
			Args: args,
		})
	}
	return json.NewEncoder(w).Encode(events)
}
