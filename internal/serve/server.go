package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// ServerConfig tunes the hardened serving front end. The zero value serves
// with no per-tenant cap, no deadlines, no stall watchdog, and no memory
// admission — every protection is opt-in so tests can exercise them one at
// a time.
type ServerConfig struct {
	// MaxQueue bounds how many admitted requests may wait for a KV slot
	// beyond the decoder's slot capacity. Overflow is shed with 429 +
	// Retry-After instead of queueing unboundedly.
	MaxQueue int
	// TenantSlots caps one tenant's in-flight requests (queued + active);
	// 0 means no per-tenant cap.
	TenantSlots int
	// DefaultDeadline bounds a request's total time in the server when the
	// client sends no X-Edgellm-Deadline-Ms header; 0 means no default.
	DefaultDeadline time.Duration
	// StallTimeout arms a per-stream watchdog that kills streams whose
	// token production goes silent for this long (504); 0 disables it.
	StallTimeout time.Duration
	// DrainTimeout is how long Drain lets in-flight streams finish before
	// cancelling the survivors.
	DrainTimeout time.Duration
	// RetryAfter is the hint sent with 429/503 responses (default 1s).
	RetryAfter time.Duration
	// Budget supplies the analytic memory envelope: each request's KV-cache
	// need (govern.ServeKVBytes for prompt+max_tokens) is reserved at the
	// door and a request that cannot fit is rejected instead of OOM-killing
	// the arena mid-stream. Zero MemoryBytes disables the check.
	Budget govern.Budget
	// Registry resolves per-tenant adapter names; nil serves base-model only.
	Registry *Registry
	// Injector threads deterministic faults through the serving path, keyed
	// by request ID: fail → admission-time rejection, panic → per-token hook
	// panic at the halfway token (contained to the stream), cancel →
	// mid-stream cancellation at the halfway token, stall → the decode
	// blocks at the halfway token until the stall watchdog kills the stream.
	Injector *fault.Injector
	// AccessLog, when non-nil, receives exactly one JSONL record per
	// /v1/generate request — including admission rejects.
	AccessLog *AccessLog
	// SLO, when non-nil, is the burn-rate tracker surfaced on /statusz.
	// The server only reports SLO state; it never feeds admission — an
	// objective burning its budget must not cause 503s of its own.
	SLO *obsv.SLOTracker
}

// errInjectedCancel is the terminal cause of a stream cancelled by a
// ModeCancel fault injection.
var errInjectedCancel = errors.New("serve: injected mid-stream cancel")

// errDisconnected is the terminal cause of a stream cancelled because the
// client went away; it wraps ErrCancelled so status mapping is unchanged
// while the access log can tell disconnects from other cancellations.
var errDisconnected = fmt.Errorf("serve: client disconnected: %w", ErrCancelled)

// Server is the multi-tenant HTTP inference front end: admission control
// and load shedding ahead of the scheduler, per-request deadlines and stall
// watchdogs wired into stream cancellation, adapter resolution through the
// registry, and graceful drain that proves the KV arena empties. Create
// with NewServer, mount Handler on an http.Server, call Drain on shutdown.
type Server struct {
	cfg   ServerConfig
	dec   *nn.Decoder
	sched *Scheduler
	adm   *govern.Admission

	sem      chan struct{} // admission bound: decoder slots + MaxQueue
	draining atomic.Bool
	nextID   atomic.Int64

	mu        sync.Mutex
	tenants   map[string]int
	streams   map[*Stream]struct{}
	inflightN int           // handlers between beginRequest and endRequest
	idle      chan struct{} // set by Drain, closed when inflightN hits 0

	serveCancel context.CancelFunc
	serveDone   chan error
}

// NewServer wraps dec in a serving front end and starts its decode
// goroutine. The caller must call Drain exactly once to stop it.
func NewServer(dec *nn.Decoder, cfg ServerConfig) *Server {
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	s := &Server{
		cfg:       cfg,
		dec:       dec,
		sched:     New(dec),
		adm:       govern.NewAdmission(cfg.Budget),
		sem:       make(chan struct{}, dec.Slots()+cfg.MaxQueue),
		tenants:   make(map[string]int),
		streams:   make(map[*Stream]struct{}),
		serveDone: make(chan error, 1),
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.serveCancel = cancel
	go func() { s.serveDone <- s.sched.Serve(ctx) }()
	return s
}

// Scheduler exposes the underlying scheduler (benchmarks and tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Handler returns the HTTP API:
//
//	POST /v1/generate  — submit a generation request (JSON; ?stream for NDJSON)
//	GET  /v1/adapters  — resident and on-disk adapter names
//	GET  /healthz      — 200 serving / 503 draining
//	GET  /statusz      — live queue/slot/arena/tenant stats and the kernel path (JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/v1/adapters", s.handleAdapters)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statusz", s.handleStatusz)
	return mux
}

// generateRequest is the POST /v1/generate body.
type generateRequest struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Adapter     string  `json:"adapter"`
	Prompt      []int   `json:"prompt"`
	MaxTokens   int     `json:"max_tokens"`
	Temperature float64 `json:"temperature"`
	TopK        int     `json:"top_k"`
	Seed        int64   `json:"seed"`
	Stream      bool    `json:"stream"`
}

// generateResponse is the success body (and the final NDJSON line when
// streaming).
type generateResponse struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Adapter     string  `json:"adapter,omitempty"`
	Tokens      []int   `json:"tokens"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	TotalMS     float64 `json:"total_ms"`
	Done        bool    `json:"done"`
}

// errorResponse is every non-2xx body: one JSON object, always with error
// and code set, so chaos tooling can assert failures are well-formed.
type errorResponse struct {
	ID    string `json:"id,omitempty"`
	Error string `json:"error"`
	Code  string `json:"code"`
}

// requestIDHeader propagates request identity: clients may supply it (or a
// body id); the server echoes the resolved ID on every response, success or
// typed error, so one grep ties an HTTP exchange to its trace spans and
// access-log line.
const requestIDHeader = "X-Edgellm-Request-Id"

// retryAfterSeconds rounds a Retry-After duration up to whole seconds, so
// sub-second configurations still tell clients to wait at least one second
// rather than hammering the server with an immediate retry.
func retryAfterSeconds(d time.Duration) int {
	return int((d + time.Second - 1) / time.Second)
}

// writeError emits the uniform JSON error shape, echoing the request ID and
// attaching Retry-After on the shed/drain statuses where a retry can help.
func (s *Server) writeError(w http.ResponseWriter, status int, id, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	if id != "" {
		w.Header().Set(requestIDHeader, id)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{ID: id, Error: err.Error(), Code: code})
}

// statusFor maps a stream's terminal error to an HTTP status and stable
// error code.
func statusFor(err error) (int, string) {
	var stall *govern.StallError
	var panicErr *StreamPanicError
	switch {
	case errors.As(err, &stall):
		return http.StatusGatewayTimeout, "stalled"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline_exceeded"
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return http.StatusServiceUnavailable, "draining"
	case errors.As(err, &panicErr):
		return http.StatusInternalServerError, "stream_panic"
	case errors.Is(err, errInjectedCancel), errors.Is(err, ErrCancelled):
		return http.StatusInternalServerError, "cancelled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// requestObs carries one request's observability state through the handler:
// the root serve.request span (tagged with the request ID so the Perfetto
// timeline is greppable per request), the access-log record, and the span
// fields accumulated along the way. Every exit path funnels through fail or
// finish, so each request ends its span and writes exactly one log line no
// matter how it dies. All cost here is per-request, never per-token.
type requestObs struct {
	s      *Server
	start  time.Time
	rec    AccessRecord
	root   obsv.Span
	wd     *govern.Watchdog
	fields map[string]float64
	admEnd bool // serve.admission child recorded
	logged bool
}

func (s *Server) newRequestObs(headerID string) *requestObs {
	o := &requestObs{s: s, start: time.Now()}
	o.rec.TimeUnixNano = o.start.UnixNano()
	o.rec.ID = headerID
	return o
}

// begin opens the root span once the request's identity is resolved.
func (o *requestObs) begin(req *generateRequest) {
	o.rec.ID = req.ID
	o.rec.Tenant = req.Tenant
	o.rec.Adapter = req.Adapter
	o.rec.PromptTokens = len(req.Prompt)
	o.root = obsv.StartSpan("serve.request", obsv.L("tenant", req.Tenant)).Tag("req", req.ID)
}

// event appends a degradation annotation to the access-log record.
func (o *requestObs) event(ev string) { o.rec.Events = append(o.rec.Events, ev) }

// field attaches a numeric field to the root span's emitted event.
func (o *requestObs) field(k string, v float64) {
	if o.fields == nil {
		o.fields = make(map[string]float64, 4)
	}
	o.fields[k] = v
}

// endAdmission records the serve.admission child exactly once, spanning
// handler start through the last admission check that ran (the KV
// reservation on success, the failing check on a reject).
func (o *requestObs) endAdmission() {
	if o.admEnd {
		return
	}
	o.admEnd = true
	o.root.ObserveChild("serve.admission", o.start, time.Since(o.start), nil)
}

// fail writes the typed error response and finishes the request's
// observability in one step.
func (o *requestObs) fail(w http.ResponseWriter, status int, code string, err error) {
	o.s.writeError(w, status, o.rec.ID, code, err)
	o.finish(status, code, err)
}

// finish ends the root span and writes the access-log record (idempotent).
func (o *requestObs) finish(status int, code string, err error) {
	if o.logged {
		return
	}
	o.logged = true
	o.endAdmission()
	o.rec.Status = status
	o.rec.Code = code
	if err != nil {
		o.rec.Err = err.Error()
	}
	o.rec.TotalMS = float64(time.Since(o.start)) / float64(time.Millisecond)
	o.root.EndWith(o.fields)
	o.s.cfg.AccessLog.Write(&o.rec)
}

// observeStream folds the scheduler's per-stream timing into the request's
// metrics (per-tenant TTFT/ITL/request dists), the span timeline (queue and
// decode children reconstructed from the timestamps the step loop stamped),
// and the access-log record.
func (o *requestObs) observeStream(st *Stream, req *generateRequest, res Result) {
	tenant := obsv.L("tenant", req.Tenant)
	obsv.Add("serve.requests", 1, tenant)
	obsv.Observe("serve.request_ms", float64(time.Since(o.start))/float64(time.Millisecond), tenant)
	tm := st.Timing()
	o.rec.Tokens = st.Sampled()
	o.rec.Steps = tm.Steps
	o.rec.DecodeMS = float64(tm.DecodeNS) / float64(time.Millisecond)
	if !tm.Admitted.IsZero() {
		o.rec.QueueMS = float64(tm.Admitted.Sub(tm.Submitted)) / float64(time.Millisecond)
		o.root.ObserveChild("serve.queue", tm.Submitted, tm.Admitted.Sub(tm.Submitted), nil)
	}
	if !tm.FirstToken.IsZero() {
		ttft := float64(tm.FirstToken.Sub(o.start)) / float64(time.Millisecond)
		o.rec.TTFTMS = ttft
		obsv.Observe("serve.ttft_ms", ttft, tenant)
		o.field("ttft_ms", ttft)
		if n := st.Sampled(); n > 1 {
			itl := float64(tm.LastToken.Sub(tm.FirstToken)) / float64(time.Millisecond) / float64(n-1)
			o.rec.ITLMeanMS = itl
			o.rec.ITLMaxMS = float64(tm.MaxGapNS) / float64(time.Millisecond)
			obsv.Observe("serve.itl_ms", itl, tenant)
		}
		o.root.ObserveChild("serve.decode", tm.Admitted, tm.LastToken.Sub(tm.Admitted),
			map[string]float64{
				"tokens":    float64(st.Sampled()),
				"steps":     float64(tm.Steps),
				"decode_ms": o.rec.DecodeMS,
			})
	} else if !tm.Admitted.IsZero() && tm.Steps > 0 {
		// Admitted and fed, but killed before the first sampled token.
		o.root.ObserveChild("serve.decode", tm.Admitted, time.Duration(tm.DecodeNS), nil)
	}
	if res.Err == nil {
		obsv.Add("serve.tokens", int64(len(res.Tokens)-len(req.Prompt)), tenant)
	} else {
		obsv.Add("serve.errors", 1, tenant)
		o.annotateError(res.Err)
	}
}

// annotateError translates a stream's terminal error into access-log
// degradation events, including where in the request timeline a stall
// watchdog fired.
func (o *requestObs) annotateError(err error) {
	var stall *govern.StallError
	var panicErr *StreamPanicError
	switch {
	case errors.As(err, &stall):
		o.event("stall_killed")
		if t := o.wd.FiredAt(); !t.IsZero() {
			o.field("stall_fired_ms", float64(t.Sub(o.start))/float64(time.Millisecond))
		}
	case errors.Is(err, context.DeadlineExceeded):
		o.event("deadline")
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		o.event("drain_cancelled")
	case errors.As(err, &panicErr):
		o.event("stream_panic")
	case errors.Is(err, errInjectedCancel):
		o.event("injected_cancel")
	case errors.Is(err, errDisconnected):
		o.event("disconnect")
	}
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	o := s.newRequestObs(r.Header.Get(requestIDHeader))
	if r.Method != http.MethodPost {
		o.fail(w, http.StatusMethodNotAllowed, "method_not_allowed",
			fmt.Errorf("serve: %s not allowed", r.Method))
		return
	}
	if !s.beginRequest() {
		obsv.Add("serve.drained", 1)
		o.fail(w, http.StatusServiceUnavailable, "draining",
			errors.New("serve: server is draining"))
		return
	}
	defer s.endRequest()
	var req generateRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		o.fail(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("serve: parse request: %w", err))
		return
	}
	// Request identity: body id beats the X-Edgellm-Request-Id header beats
	// a server-generated id. Whichever wins is echoed on the response and
	// tags the trace spans and the access-log line.
	if req.ID == "" {
		req.ID = o.rec.ID
	}
	if req.ID == "" {
		req.ID = fmt.Sprintf("r%d", s.nextID.Add(1))
	}
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	o.begin(&req)

	// Admission-stage fault seam: deterministic injected rejections.
	mode := fault.Mode("")
	if s.cfg.Injector != nil {
		mode = s.cfg.Injector.ModeFor(req.ID)
	}
	if mode == fault.ModeFail {
		obsv.Add("serve.shed", 1, obsv.L("reason", "injected"))
		o.event("injected_fault")
		o.fail(w, http.StatusServiceUnavailable, "injected_fault",
			&fault.PermanentError{Msg: "injected admission failure in " + req.ID})
		return
	}

	cfg := s.dec.Config()
	sample := nn.SampleConfig{
		Temperature: req.Temperature, TopK: req.TopK,
		MaxTokens: req.MaxTokens, Seed: req.Seed,
	}
	if err := sample.Validate(); err != nil {
		o.fail(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	if len(req.Prompt) == 0 || len(req.Prompt)+req.MaxTokens > cfg.MaxSeq {
		o.fail(w, http.StatusBadRequest, "bad_request",
			fmt.Errorf("serve: need a non-empty prompt with prompt+max_tokens ≤ %d", cfg.MaxSeq))
		return
	}

	// Per-tenant concurrency cap.
	if !s.tenantAcquire(req.Tenant) {
		obsv.Add("serve.shed", 1, obsv.L("reason", "tenant"))
		o.fail(w, http.StatusTooManyRequests, "tenant_limit",
			fmt.Errorf("serve: tenant %s is at its %d-request limit", req.Tenant, s.cfg.TenantSlots))
		return
	}
	defer s.tenantRelease(req.Tenant)

	// Bounded wait queue: slots + MaxQueue requests in the building, the
	// rest shed immediately.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		obsv.Add("serve.shed", 1, obsv.L("reason", "queue"))
		o.fail(w, http.StatusTooManyRequests, "overloaded",
			fmt.Errorf("serve: queue full (%d waiting + %d active)", s.cfg.MaxQueue, s.dec.Slots()))
		return
	}

	// Analytic KV admission: reject requests that cannot fit in the memory
	// budget before they pin anything.
	kvNeed := govern.ServeKVBytes(cfg.Layers, cfg.Dim, len(req.Prompt)+req.MaxTokens)
	if err := s.adm.TryReserve(kvNeed); err != nil {
		var over *govern.OverBudgetError
		if errors.As(err, &over) && over.Permanent {
			obsv.Add("serve.shed", 1, obsv.L("reason", "unfittable"))
			o.fail(w, http.StatusRequestEntityTooLarge, "unfittable", err)
			return
		}
		obsv.Add("serve.shed", 1, obsv.L("reason", "memory"))
		o.fail(w, http.StatusTooManyRequests, "memory", err)
		return
	}
	defer s.adm.Release(kvNeed)
	o.endAdmission()

	// Resolve the tenant's adapter through the registry (pinned until the
	// stream finishes). Corruption is a clean 4xx, never a panic.
	var adapter *nn.Adapter
	if req.Adapter != "" {
		load := o.root.Child("serve.adapter_load")
		if s.cfg.Registry == nil {
			load.End()
			o.fail(w, http.StatusNotFound, "adapter_not_found",
				fmt.Errorf("%w: no adapter registry configured", ErrAdapterNotFound))
			return
		}
		a, err := s.cfg.Registry.Acquire(req.Adapter)
		load.End()
		if err != nil {
			var corrupt *CorruptAdapterError
			switch {
			case errors.As(err, &corrupt):
				o.fail(w, http.StatusUnprocessableEntity, "adapter_corrupt", err)
			case errors.Is(err, ErrRegistryBusy):
				obsv.Add("serve.shed", 1, obsv.L("reason", "adapters"))
				o.fail(w, http.StatusTooManyRequests, "adapters_busy", err)
			default:
				o.fail(w, http.StatusNotFound, "adapter_not_found", err)
			}
			return
		}
		adapter = a
		defer s.cfg.Registry.Release(req.Adapter)
	}

	// Deadline: header beats server default; both flow through the request
	// context so client disconnects and deadlines share one cancel path.
	reqCtx := r.Context()
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Edgellm-Deadline-Ms"); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			o.fail(w, http.StatusBadRequest, "bad_request",
				fmt.Errorf("serve: bad X-Edgellm-Deadline-Ms %q", h))
			return
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	if deadline > 0 {
		var cancel context.CancelFunc
		reqCtx, cancel = context.WithTimeout(reqCtx, deadline)
		defer cancel()
	}

	// Per-stream stall watchdog: token production beats it; silence for
	// StallTimeout kills the stream with a typed StallError.
	wctx := reqCtx
	var wd *govern.Watchdog
	if s.cfg.StallTimeout > 0 {
		wctx, wd = govern.Budget{HeartbeatTimeout: s.cfg.StallTimeout}.Watch(reqCtx, "serve:"+req.ID)
		wd.Beat() // arm: queue wait counts as production time
		defer wd.Stop()
		o.wd = wd
	}

	// cancelForCtx maps the request context's demise to a typed cancellation
	// cause (stall beats deadline beats disconnect) exactly once, shared by
	// the watcher goroutine and the injected-stall seam so the cause is
	// recorded before the decode loop can observe the unblocked context.
	var cancelOnce sync.Once
	cancelForCtx := func(st *Stream) {
		cancelOnce.Do(func() {
			cause := wctx.Err()
			if wd != nil {
				if se := wd.Err(); se != nil {
					cause = se
					obsv.Add("serve.stalled", 1)
				}
			}
			if errors.Is(cause, context.DeadlineExceeded) {
				obsv.Add("serve.deadline_exceeded", 1)
			} else if errors.Is(cause, context.Canceled) {
				cause = errDisconnected
				obsv.Add("serve.disconnects", 1)
			}
			st.CancelCause(cause)
		})
	}

	half := req.MaxTokens / 2
	var tokCh chan int
	if req.Stream {
		// Buffered to MaxTokens: the decode goroutine can always complete a
		// stream without waiting on a slow client.
		tokCh = make(chan int, req.MaxTokens)
	}
	onToken := func(st *Stream, tok int) {
		switch mode {
		case fault.ModePanic:
			if st.Sampled() == half {
				panic(fmt.Sprintf("fault: injected panic in %s at token %d", req.ID, half))
			}
		case fault.ModeCancel:
			if st.Sampled() == half {
				st.CancelCause(errInjectedCancel)
			}
		case fault.ModeStall:
			if st.Sampled() == half {
				// A genuinely stalled decode: block token production until
				// the stall watchdog (or deadline) kills this stream. Cancel
				// synchronously on unblock — the cause must be recorded
				// before the decode loop reaches its next step boundary.
				<-wctx.Done()
				cancelForCtx(st)
				return
			}
		}
		if wd != nil {
			wd.Beat()
		}
		if tokCh != nil {
			select {
			case tokCh <- tok:
			default:
			}
		}
	}

	st, err := s.sched.Submit(Request{
		ID: req.ID, Tenant: req.Tenant, Prompt: req.Prompt,
		Cfg: sample, Adapter: adapter, OnToken: onToken,
	})
	switch {
	case errors.Is(err, ErrClosed):
		obsv.Add("serve.drained", 1)
		o.fail(w, http.StatusServiceUnavailable, "draining", err)
		return
	case errors.Is(err, ErrAdapterMismatch):
		o.fail(w, http.StatusUnprocessableEntity, "adapter_mismatch", err)
		return
	case err != nil:
		o.fail(w, http.StatusBadRequest, "bad_request", err)
		return
	}
	s.trackStream(st, true)
	defer s.trackStream(st, false)

	// Cancellation watcher: deadline, client disconnect, and watchdog all
	// funnel into CancelCause so the KV slot is reclaimed at the next step
	// boundary no matter how the request dies.
	go func() {
		select {
		case <-st.Done():
		case <-wctx.Done():
			cancelForCtx(st)
		}
	}()

	if req.Stream {
		s.streamResponse(w, st, &req, tokCh, o)
	} else {
		s.unaryResponse(w, st, &req, o)
	}
}

func (s *Server) unaryResponse(w http.ResponseWriter, st *Stream, req *generateRequest, o *requestObs) {
	<-st.Done()
	res := st.Result()
	o.observeStream(st, req, res)
	if res.Err != nil {
		status, code := statusFor(res.Err)
		o.fail(w, status, code, res.Err)
		return
	}
	flush := o.root.Child("serve.flush")
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(requestIDHeader, req.ID)
	json.NewEncoder(w).Encode(generateResponse{
		ID: req.ID, Tenant: req.Tenant, Adapter: req.Adapter, Tokens: res.Tokens,
		QueueWaitMS: o.rec.QueueMS,
		TotalMS:     float64(time.Since(o.start)) / float64(time.Millisecond), Done: true,
	})
	flush.End()
	o.finish(http.StatusOK, "ok", nil)
}

// streamChunk is one NDJSON line of a streaming response.
type streamChunk struct {
	Token int `json:"token"`
}

// streamResponse writes tokens as NDJSON lines as they are produced, ending
// with a generateResponse (or errorResponse) line. The scheduler never
// blocks on this path: tokens flow through a channel buffered to MaxTokens,
// so a slow client costs only its own latency. A failed write cancels the
// stream, reclaiming the KV slot immediately.
func (s *Server) streamResponse(w http.ResponseWriter, st *Stream, req *generateRequest, tokCh chan int, o *requestObs) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(requestIDHeader, req.ID)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeChunk := func(tok int) bool {
		if err := enc.Encode(streamChunk{Token: tok}); err != nil {
			st.CancelCause(fmt.Errorf("serve: client write failed: %w", ErrCancelled))
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	alive := true
	for alive {
		select {
		case tok := <-tokCh:
			alive = writeChunk(tok)
		case <-st.Done():
			// Drain tokens that raced the close, then emit the terminal line.
			for alive {
				select {
				case tok := <-tokCh:
					alive = writeChunk(tok)
				default:
					res := st.Result()
					o.observeStream(st, req, res)
					flush := o.root.Child("serve.flush")
					// The HTTP status is already 200; the access-log Code
					// carries the stream's real verdict.
					if res.Err != nil {
						_, code := statusFor(res.Err)
						enc.Encode(errorResponse{ID: req.ID, Error: res.Err.Error(), Code: code})
						flush.End()
						o.finish(http.StatusOK, code, res.Err)
					} else {
						enc.Encode(generateResponse{
							ID: req.ID, Tenant: req.Tenant, Adapter: req.Adapter, Tokens: res.Tokens,
							QueueWaitMS: o.rec.QueueMS,
							TotalMS:     float64(time.Since(o.start)) / float64(time.Millisecond), Done: true,
						})
						flush.End()
						o.finish(http.StatusOK, "ok", nil)
					}
					if flusher != nil {
						flusher.Flush()
					}
					return
				}
			}
		}
	}
	// Client is gone; wait for the scheduler to retire the stream so the
	// slot is provably reclaimed before the handler exits.
	<-st.Done()
	res := st.Result()
	o.observeStream(st, req, res)
	o.event("client_write_failed")
	code := "ok"
	if res.Err != nil {
		_, code = statusFor(res.Err)
	}
	o.finish(http.StatusOK, code, res.Err)
}

func (s *Server) tenantAcquire(tenant string) bool {
	if s.cfg.TenantSlots <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tenants[tenant] >= s.cfg.TenantSlots {
		return false
	}
	s.tenants[tenant]++
	return true
}

func (s *Server) tenantRelease(tenant string) {
	if s.cfg.TenantSlots <= 0 {
		return
	}
	s.mu.Lock()
	if s.tenants[tenant] > 0 {
		s.tenants[tenant]--
	}
	if s.tenants[tenant] == 0 {
		delete(s.tenants, tenant)
	}
	s.mu.Unlock()
}

func (s *Server) trackStream(st *Stream, add bool) {
	s.mu.Lock()
	if add {
		s.streams[st] = struct{}{}
	} else {
		delete(s.streams, st)
	}
	obsv.SetGauge("serve.active", float64(len(s.streams)))
	s.mu.Unlock()
}

// beginRequest registers an in-flight generate request, refusing once
// draining has started. The draining check and the counter increment share
// s.mu with Drain's inflight snapshot, so every request is either visible
// to the drain wait or rejected with 503 — never missed in between. (A
// WaitGroup cannot give this guarantee: Add racing Wait at counter zero is
// the documented misuse, and the race detector flags it.)
func (s *Server) beginRequest() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining.Load() {
		return false
	}
	s.inflightN++
	return true
}

func (s *Server) endRequest() {
	s.mu.Lock()
	s.inflightN--
	if s.inflightN == 0 && s.idle != nil {
		close(s.idle)
		s.idle = nil
	}
	s.mu.Unlock()
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		// Distinct body from the overload 503s: black-box probes tell a
		// deliberate drain ({"status":"draining"}) from shedding (an
		// errorResponse with code "overloaded"/"draining") at a glance.
		w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(s.cfg.RetryAfter)))
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleAdapters(w http.ResponseWriter, r *http.Request) {
	resp := map[string]any{"resident": []string{}, "available": []string{}}
	if s.cfg.Registry != nil {
		if res := s.cfg.Registry.Resident(); res != nil {
			resp["resident"] = res
		}
		if avail := s.cfg.Registry.List(); avail != nil {
			resp["available"] = avail
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (s *Server) handleStatusz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	active := len(s.streams)
	tenants := make(map[string]int, len(s.tenants))
	for t, n := range s.tenants {
		tenants[t] = n
	}
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	status := map[string]any{
		"draining":          s.draining.Load(),
		"active_requests":   active,
		"queue_depth":       s.sched.QueueDepth(),
		"slots":             s.dec.Slots(),
		"reserved_kv_bytes": s.adm.ReservedBytes(),
		"tenants":           tenants,
		"kernel":            tensor.KernelPath(),
	}
	if s.cfg.SLO != nil {
		status["slo"] = s.cfg.SLO.Status()
	}
	json.NewEncoder(w).Encode(status)
}

// Drain gracefully stops the server: admission is closed immediately (new
// requests get 503 + Retry-After), in-flight streams get up to DrainTimeout
// to finish, survivors are then cancelled with ErrDraining, and the decode
// goroutine is stopped. It returns an error if the KV arena does not drain
// back to zero bytes — the invariant the chaos CI job pins. Call exactly
// once; later calls return immediately.
func (s *Server) Drain() error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil
	}
	s.sched.Close() // racing Submits now get typed ErrClosed
	done := make(chan struct{})
	s.mu.Lock()
	if s.inflightN == 0 {
		close(done)
	} else {
		s.idle = done
	}
	s.mu.Unlock()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainTimeout):
		s.mu.Lock()
		for st := range s.streams {
			st.CancelCause(ErrDraining)
			obsv.Add("serve.drain_cancelled", 1)
		}
		s.mu.Unlock()
		// Cancelled streams retire at the next step boundary; give their
		// handlers one more grace period, then stop regardless — the
		// scheduler (not the handlers) owns slot reclamation.
		select {
		case <-done:
		case <-time.After(s.cfg.DrainTimeout):
		}
	}
	s.serveCancel()
	<-s.serveDone // Serve returns ctx.Err() after finishing every stream
	if n := s.dec.ArenaActiveBytes(); n != 0 {
		return fmt.Errorf("serve: arena did not drain: %d bytes still active", n)
	}
	return nil
}
