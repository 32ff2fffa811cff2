package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// AccessRecord is one JSONL access-log line: the complete, self-contained
// verdict of one /v1/generate request — enough to reconstruct where the
// request spent its time without the trace. Every request produces exactly
// one record, including admission rejects (which carry only the fields
// known at rejection time).
type AccessRecord struct {
	// TimeUnixNano is when the server began handling the request.
	TimeUnixNano int64 `json:"ts"`
	// ID is the request ID (client-supplied, header-propagated, or
	// server-generated). Empty only for early rejects that never carried one.
	ID      string `json:"id,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	Adapter string `json:"adapter,omitempty"`
	// Status is the HTTP status written. Streaming responses report 200
	// even when the stream later failed; Code carries the real verdict.
	Status int `json:"status"`
	// Code is the verdict: "ok" or the typed error code ("stalled",
	// "overloaded", "deadline_exceeded", ...).
	Code string `json:"code"`
	// Latency decomposition (milliseconds). Zero fields are omitted: a shed
	// request has only TotalMS, a request that produced no token has no TTFT.
	QueueMS   float64 `json:"queue_ms,omitempty"`    // submit → KV slot acquired
	TTFTMS    float64 `json:"ttft_ms,omitempty"`     // handler start → first token
	ITLMeanMS float64 `json:"itl_mean_ms,omitempty"` // mean inter-token gap
	ITLMaxMS  float64 `json:"itl_max_ms,omitempty"`  // widest inter-token gap
	DecodeMS  float64 `json:"decode_ms,omitempty"`   // summed batched-step time
	TotalMS   float64 `json:"total_ms"`
	// Token accounting. Steps counts batched steps, not tokens: the prompt
	// enters up to nn.PrefillRows tokens a step, so a finished request has
	// Steps < PromptTokens + Tokens unless its prompt is a single token.
	PromptTokens int   `json:"prompt_tokens,omitempty"`
	Tokens       int   `json:"tokens,omitempty"` // continuation tokens produced
	Steps        int64 `json:"steps,omitempty"`  // batched steps participated in
	// Err is the terminal error message when Code != "ok".
	Err string `json:"error,omitempty"`
	// Events are degradation annotations observed during the request:
	// "stall_killed", "drain_cancelled", "disconnect", "deadline",
	// "stream_panic", "injected_fault".
	Events []string `json:"events,omitempty"`
}

// AccessLog is a concurrency-safe JSONL access-log writer with first-error
// retention: the serving path never fails a request because the log disk
// filled, but the operator can ask Err at shutdown. A nil *AccessLog is a
// valid no-op receiver.
type AccessLog struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	c   io.Closer
	err error
}

// NewAccessLog wraps w. If w is an io.Closer, Close will close it after
// flushing.
func NewAccessLog(w io.Writer) *AccessLog {
	bw := bufio.NewWriter(w)
	al := &AccessLog{bw: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		al.c = c
	}
	return al
}

// Write appends one record (nil-safe). Write failures are retained for
// Close to return, not propagated: the request was already served.
func (al *AccessLog) Write(rec *AccessRecord) {
	if al == nil {
		return
	}
	al.mu.Lock()
	if err := al.enc.Encode(rec); err != nil && al.err == nil {
		al.err = err
	}
	al.mu.Unlock()
}

// Close flushes buffered records and closes the underlying writer when it
// is closable (nil-safe). It returns the first error seen over the log's
// lifetime.
func (al *AccessLog) Close() error {
	if al == nil {
		return nil
	}
	al.mu.Lock()
	defer al.mu.Unlock()
	if err := al.bw.Flush(); err != nil && al.err == nil {
		al.err = err
	}
	if al.c != nil {
		if err := al.c.Close(); err != nil && al.err == nil {
			al.err = err
		}
	}
	return al.err
}

// MalformedRecordError reports an access-log line that failed to parse.
type MalformedRecordError struct {
	Line int // 1-based line number
	Err  error
}

// Error implements error.
func (e *MalformedRecordError) Error() string {
	return fmt.Sprintf("serve: access log line %d: %v", e.Line, e.Err)
}

func (e *MalformedRecordError) Unwrap() error { return e.Err }

// ReadAccessLog parses a JSONL access log. On a malformed line it returns
// the records parsed so far together with a *MalformedRecordError, so
// tolerant readers can keep the good prefix (e.g. a log truncated by a
// crash) while strict validators fail.
func ReadAccessLog(r io.Reader) ([]AccessRecord, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var recs []AccessRecord
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		var rec AccessRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			return recs, &MalformedRecordError{Line: line, Err: err}
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return recs, err
	}
	return recs, nil
}
