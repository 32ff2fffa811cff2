package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
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
	// cancelling the survivors with ErrDraining.
	DrainTimeout time.Duration
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
	// SLO lists the objectives /statusz reports, each read from the global
	// recorder on every request. The server only reports SLO state; it
	// never feeds admission — an objective burning its budget must not
	// cause 503s of its own.
	SLO []obsv.SLOObjective
}

// errInjectedCancel is the terminal cause of a stream cancelled by a
// ModeCancel fault injection.
var errInjectedCancel = errors.New("serve: injected mid-stream cancel")

// errDisconnected is the terminal cause of a stream cancelled because the
// client went away; it wraps ErrCancelled so it shares the cancelled status
// while the access log can tell disconnects from other cancellations.
var errDisconnected = fmt.Errorf("serve: client disconnected: %w", ErrCancelled)

// cancelCause is why a request context ended, as its stream's terminal
// error: a stall (*govern.StallError) or a deadline passes through, and a
// plain cancellation, which is the client going away, reads as
// errDisconnected.
func cancelCause(ctx context.Context) error {
	if cause := context.Cause(ctx); !errors.Is(cause, context.Canceled) {
		return cause
	}
	return errDisconnected
}

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
	active    int           // requests holding a submitted stream
	inflightN int           // handlers between beginRequest and endRequest
	idle      chan struct{} // set by Drain, closed when inflightN hits 0

	serveCancel context.CancelCauseFunc
	serveDone   chan error
}

// NewServer wraps dec in a serving front end and starts its decode
// goroutine. The caller must call Drain exactly once to stop it.
func NewServer(dec *nn.Decoder, cfg ServerConfig) *Server {
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
		serveDone: make(chan error, 1),
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	s.serveCancel = cancel
	go func() { s.serveDone <- s.sched.Serve(ctx) }()
	return s
}

// Handler returns the HTTP API:
//
//	POST /v1/generate  — submit a generation request (JSON; ?stream for NDJSON)
//	GET  /v1/adapters  — resident and on-disk adapter names
//	GET  /healthz      — 200 serving / 503 draining
//	GET  /statusz      — live queue/slot/arena/tenant stats, the kernel path and the lane team's counters (JSON)
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

// retryAfter is the Retry-After hint, in seconds, on every 429 and 503: a
// shed client waits a second rather than hammering the server with an
// immediate retry.
const retryAfter = "1"

// writeJSON emits one JSON body, echoing the request ID and attaching
// Retry-After on the shed/drain statuses where a retry can help.
func (s *Server) writeJSON(w http.ResponseWriter, status int, id string, body any) {
	w.Header().Set("Content-Type", "application/json")
	if id != "" {
		w.Header().Set(requestIDHeader, id)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfter)
	}
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

// Admission reject kinds. A reject wraps its cause with the kind of refusal
// it is, which outcomeOf classifies; its message stays the cause's.
var (
	errMethod      = errors.New("method not allowed")
	errInvalid     = errors.New("invalid request") // the body, Check, the deadline header
	errRefused     = errors.New("serve: server is draining")
	errTenantLimit = errors.New("tenant at its limit")
	errQueueFull   = errors.New("queue full")
)

// rejectError is an admission reject: kind is which, err is why.
type rejectError struct{ kind, err error }

func (e *rejectError) Error() string   { return e.err.Error() }
func (e *rejectError) Unwrap() []error { return []error{e.kind, e.err} }

func reject(kind, err error) error { return &rejectError{kind, err} }

// outcome is what one way of ending means to every observer of a request.
type outcome struct {
	status  int    // HTTP status of a unary response
	code    string // stable error code ("ok" on success)
	event   string // access-log degradation event, if any
	counter string // serve.* counter bumped once per request, if any
	shed    string // serve.shed reason of a load-shedding reject, if any
}

// outcomeOf is the one table from how a /v1/generate request ends to its
// outcome: nil on success, an admission reject, or a stream's terminal
// error. Wrapped errors classify as what they wrap.
func outcomeOf(err error) outcome {
	if err == nil {
		return outcome{http.StatusOK, "ok", "", "", ""}
	}
	// Declared past the success return: errors.As moves its targets to the
	// heap, and a request that succeeds allocates none of them.
	var stall *govern.StallError
	var panicErr *StreamPanicError
	var injected *fault.PermanentError
	var over *govern.OverBudgetError
	var corrupt *CorruptAdapterError
	switch {
	case errors.Is(err, errMethod):
		return outcome{http.StatusMethodNotAllowed, "method_not_allowed", "", "", ""}
	case errors.Is(err, errRefused):
		return outcome{http.StatusServiceUnavailable, "draining", "", "serve.drained", ""}
	case errors.Is(err, errInvalid):
		return outcome{http.StatusBadRequest, "bad_request", "", "", ""}
	case errors.As(err, &injected):
		return outcome{http.StatusServiceUnavailable, "injected_fault", "injected_fault", "", "injected"}
	case errors.Is(err, errTenantLimit):
		return outcome{http.StatusTooManyRequests, "tenant_limit", "", "", "tenant"}
	case errors.Is(err, errQueueFull):
		return outcome{http.StatusTooManyRequests, "overloaded", "", "", "queue"}
	case errors.As(err, &over) && over.Permanent:
		return outcome{http.StatusRequestEntityTooLarge, "unfittable", "", "", "unfittable"}
	case errors.As(err, &over):
		return outcome{http.StatusTooManyRequests, "memory", "", "", "memory"}
	case errors.Is(err, ErrAdapterNotFound):
		return outcome{http.StatusNotFound, "adapter_not_found", "", "", ""}
	case errors.As(err, &corrupt):
		return outcome{http.StatusUnprocessableEntity, "adapter_corrupt", "", "", ""}
	case errors.Is(err, ErrRegistryBusy):
		return outcome{http.StatusTooManyRequests, "adapters_busy", "", "", "adapters"}
	case errors.Is(err, ErrAdapterMismatch):
		return outcome{http.StatusUnprocessableEntity, "adapter_mismatch", "", "", ""}
	case errors.As(err, &stall):
		return outcome{http.StatusGatewayTimeout, "stalled", "stall_killed", "serve.stalled", ""}
	case errors.Is(err, context.DeadlineExceeded):
		return outcome{http.StatusGatewayTimeout, "deadline_exceeded", "deadline", "serve.deadline_exceeded", ""}
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		return outcome{http.StatusServiceUnavailable, "draining", "drain_cancelled", "serve.drain_cancelled", ""}
	case errors.As(err, &panicErr):
		return outcome{http.StatusInternalServerError, "stream_panic", "stream_panic", "", ""}
	case errors.Is(err, errInjectedCancel):
		return outcome{http.StatusInternalServerError, "cancelled", "injected_cancel", "", ""}
	case errors.Is(err, errDisconnected):
		return outcome{http.StatusInternalServerError, "cancelled", "disconnect", "serve.disconnects", ""}
	case errors.Is(err, ErrCancelled):
		return outcome{http.StatusInternalServerError, "cancelled", "", "", ""}
	default:
		return outcome{http.StatusInternalServerError, "internal", "", "", ""}
	}
}

// requestObs carries one request through the handler: the parsed request,
// what admission granted it, and its observability state — the root
// serve.request span (tagged with the request ID so the Perfetto timeline is
// greppable per request), the access-log record, and the span fields
// accumulated along the way. Every exit path funnels through fail or finish,
// so each request ends its span and writes exactly one log line no matter
// how it dies, and release gives back what it holds. All cost here is
// per-request, never per-token.
type requestObs struct {
	s      *Server
	req    generateRequest
	start  time.Time
	rec    AccessRecord
	root   obsv.Span
	fields map[string]float64
	admEnd bool // serve.admission child recorded

	tokCh    chan int        // streamed tokens, when req.Stream
	wctx     context.Context // ended by deadline, disconnect or stall
	wd       *govern.Watchdog
	cancel   context.CancelFunc // the deadline's
	inflight bool               // counted by Drain's wait
	tenant   bool               // holds one of req.Tenant's TenantSlots
	queued   bool               // holds a place in the bounded queue
	kv       int64              // reserved KV-cache bytes
	pinned   bool               // req.Adapter pinned in the registry
}

// release gives back what admission granted, in the reverse order of taking.
func (o *requestObs) release() {
	o.wd.Stop()
	if o.cancel != nil {
		o.cancel()
	}
	if o.pinned {
		o.s.cfg.Registry.Release(o.req.Adapter)
	}
	o.s.adm.Release(o.kv)
	if o.queued {
		<-o.s.sem
	}
	if o.tenant {
		o.s.tenantRelease(o.req.Tenant)
	}
	if o.inflight {
		o.s.endRequest()
	}
}

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

// note records oc's access-log event and bumps its counters.
func (o *requestObs) note(oc outcome) {
	if oc.event != "" {
		o.rec.Events = append(o.rec.Events, oc.event)
	}
	if oc.counter != "" {
		obsv.Add(oc.counter, 1)
	}
	if oc.shed != "" {
		obsv.Add("serve.shed", 1, obsv.L("reason", oc.shed))
	}
}

// fail answers an admission reject with its typed error response and
// finishes the request's observability in one step.
func (o *requestObs) fail(w http.ResponseWriter, err error) {
	oc := outcomeOf(err)
	o.note(oc)
	o.s.writeJSON(w, oc.status, o.rec.ID, errorResponse{ID: o.rec.ID, Error: err.Error(), Code: oc.code})
	o.finish(oc.status, oc.code, err)
}

// finish ends the root span and writes the access-log record. Every path
// through the handler calls it exactly once.
func (o *requestObs) finish(status int, code string, err error) {
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

// end waits for st to finish and observes it: the per-tenant metrics
// (TTFT/ITL/request dists), the span timeline (queue and decode children
// reconstructed from the timestamps the step loop stamped), and the
// access-log record, with the outcome's event and counter. It returns the
// outcome, the last body (a generateResponse on success, an errorResponse
// otherwise) and the stream's terminal error.
func (o *requestObs) end(st *Stream) (outcome, any, error) {
	<-st.Done()
	res := st.Result()
	tenant := obsv.L("tenant", o.req.Tenant)
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
	oc := outcomeOf(res.Err)
	if res.Err == nil {
		obsv.Add("serve.tokens", int64(len(res.Tokens)-len(o.req.Prompt)), tenant)
		return oc, generateResponse{
			ID: o.req.ID, Tenant: o.req.Tenant, Adapter: o.req.Adapter, Tokens: res.Tokens,
			QueueWaitMS: o.rec.QueueMS,
			TotalMS:     float64(time.Since(o.start)) / float64(time.Millisecond), Done: true,
		}, nil
	}
	obsv.Add("serve.errors", 1, tenant)
	o.note(oc)
	if t := o.wd.FiredAt(); oc.code == "stalled" && !t.IsZero() {
		// Where in the request timeline the watchdog fired.
		o.field("stall_fired_ms", float64(t.Sub(o.start))/float64(time.Millisecond))
	}
	return oc, errorResponse{ID: o.req.ID, Error: res.Err.Error(), Code: oc.code}, res.Err
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	o := &requestObs{s: s, start: time.Now(), rec: AccessRecord{ID: r.Header.Get(requestIDHeader)}}
	o.rec.TimeUnixNano = o.start.UnixNano()
	defer o.release()
	st, err := s.admit(o, w, r)
	if err != nil {
		o.fail(w, err)
		return
	}
	s.addActive(1)
	defer s.addActive(-1)

	// Cancellation watcher: the request context's cause becomes the
	// stream's, so the KV slot is reclaimed at the next step boundary no
	// matter how the request dies. (A goroutine, not context.AfterFunc:
	// fewer allocations per request.)
	go func() {
		select {
		case <-st.Done():
		case <-o.wctx.Done():
			st.CancelCause(cancelCause(o.wctx))
		}
	}()

	if o.req.Stream {
		s.streamResponse(w, st, o)
		return
	}
	oc, body, err := o.end(st)
	flush := o.root.Child("serve.flush")
	s.writeJSON(w, oc.status, o.req.ID, body)
	flush.End()
	o.finish(oc.status, oc.code, err)
}

// admit runs a request through every admission check, in order, taking what
// each grants into o, and submits it. An error is the reject that refused it.
func (s *Server) admit(o *requestObs, w http.ResponseWriter, r *http.Request) (*Stream, error) {
	if r.Method != http.MethodPost {
		return nil, reject(errMethod, fmt.Errorf("serve: %s not allowed", r.Method))
	}
	if o.inflight = s.beginRequest(); !o.inflight {
		return nil, errRefused
	}
	req := &o.req
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(req); err != nil {
		return nil, reject(errInvalid, fmt.Errorf("serve: parse request: %w", err))
	}
	// Request identity: body id beats the X-Edgellm-Request-Id header beats
	// a server-generated id. Whichever wins is echoed on the response and
	// tags the trace spans and the access-log line.
	if req.ID = cmp.Or(req.ID, o.rec.ID); req.ID == "" {
		req.ID = fmt.Sprintf("r%d", s.nextID.Add(1))
	}
	req.Tenant = cmp.Or(req.Tenant, "default")
	o.rec.ID, o.rec.Tenant, o.rec.Adapter, o.rec.PromptTokens = req.ID, req.Tenant, req.Adapter, len(req.Prompt)
	o.root = obsv.StartSpan("serve.request", obsv.L("tenant", req.Tenant)).Tag("req", req.ID)

	// Admission-stage fault seam: deterministic injected rejections.
	mode := s.cfg.Injector.ModeFor(req.ID)
	if mode == fault.ModeFail {
		return nil, &fault.PermanentError{Msg: "injected admission failure in " + req.ID}
	}

	// The scheduler's Check, run once: before the request takes a tenant
	// slot, a queue place or a KV reservation, and not again at submit.
	sreq := Request{
		ID: req.ID, Tenant: req.Tenant, Prompt: req.Prompt,
		Cfg: nn.SampleConfig{
			Temperature: req.Temperature, TopK: req.TopK,
			MaxTokens: req.MaxTokens, Seed: req.Seed,
		},
	}
	if err := s.sched.Check(sreq); err != nil {
		return nil, err
	}

	// Per-tenant concurrency cap.
	if o.tenant = s.tenantAcquire(req.Tenant); !o.tenant {
		return nil, reject(errTenantLimit,
			fmt.Errorf("serve: tenant %s is at its %d-request limit", req.Tenant, s.cfg.TenantSlots))
	}

	// Bounded wait queue: slots + MaxQueue requests in the building, the
	// rest shed immediately.
	select {
	case s.sem <- struct{}{}:
		o.queued = true
	default:
		return nil, reject(errQueueFull,
			fmt.Errorf("serve: queue full (%d waiting + %d active)", s.cfg.MaxQueue, s.dec.Slots()))
	}

	// Analytic KV admission: reject requests that cannot fit in the memory
	// budget before they pin anything.
	cfg := s.dec.Config()
	kvNeed := govern.ServeKVBytes(cfg.Layers, cfg.Dim, len(req.Prompt)+req.MaxTokens)
	if err := s.adm.TryReserve(kvNeed); err != nil {
		return nil, err
	}
	o.kv = kvNeed
	o.endAdmission()

	// Resolve the tenant's adapter through the registry (pinned until the
	// stream finishes). Corruption is a clean 4xx, never a panic.
	if req.Adapter != "" {
		load := o.root.Child("serve.adapter_load")
		if s.cfg.Registry == nil {
			load.End()
			return nil, fmt.Errorf("%w: no adapter registry configured", ErrAdapterNotFound)
		}
		adp, err := s.cfg.Registry.Acquire(req.Adapter)
		load.End()
		if err != nil {
			return nil, err
		}
		sreq.Adapter, o.pinned = adp, true
	}

	// Deadline: header beats server default. Deadline, client disconnect and
	// stall watchdog all end the request context, each with its own cause,
	// and share one cancel path.
	o.wctx = r.Context()
	deadline := s.cfg.DefaultDeadline
	if h := r.Header.Get("X-Edgellm-Deadline-Ms"); h != "" {
		ms, err := strconv.Atoi(h)
		if err != nil || ms <= 0 {
			return nil, reject(errInvalid, fmt.Errorf("serve: bad X-Edgellm-Deadline-Ms %q", h))
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	if deadline > 0 {
		o.wctx, o.cancel = context.WithTimeout(o.wctx, deadline)
	}

	// Per-stream stall watchdog: token production beats it; silence for
	// StallTimeout cancels the context with a typed StallError as cause.
	if s.cfg.StallTimeout > 0 {
		o.wctx, o.wd = govern.Budget{HeartbeatTimeout: s.cfg.StallTimeout}.Watch(o.wctx, "serve:"+req.ID)
		o.wd.Beat() // arm: queue wait counts as production time
	}

	half := req.MaxTokens / 2
	if req.Stream {
		// Buffered to MaxTokens: the decode goroutine can always complete a
		// stream without waiting on a slow client.
		o.tokCh = make(chan int, req.MaxTokens)
	}
	sreq.OnToken = func(st *Stream, tok int) {
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
				<-o.wctx.Done()
				st.CancelCause(cancelCause(o.wctx))
				return
			}
		}
		o.wd.Beat()
		if o.tokCh != nil {
			select {
			case o.tokCh <- tok:
			default:
			}
		}
	}

	st, err := s.sched.submit(sreq)
	if errors.Is(err, ErrClosed) {
		// Drain closed the scheduler after this request got in: refused
		// at the door, like a request that arrives draining.
		err = reject(errRefused, err)
	}
	return st, err
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
func (s *Server) streamResponse(w http.ResponseWriter, st *Stream, o *requestObs) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set(requestIDHeader, o.req.ID)
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
	alive, done := true, false
	for alive && !done {
		select {
		case tok := <-o.tokCh:
			alive = writeChunk(tok)
		case <-st.Done():
			done = true
		}
	}
	// Every token was sent before Done closed, and none was dropped: what
	// is left in the channel raced the close.
	for alive && len(o.tokCh) > 0 {
		alive = writeChunk(<-o.tokCh)
	}
	// end waits for the scheduler to retire the stream, so even when the
	// client is gone the slot is provably reclaimed before the handler exits.
	oc, body, err := o.end(st)
	if alive {
		flush := o.root.Child("serve.flush")
		enc.Encode(body)
		flush.End()
	} else {
		o.rec.Events = append(o.rec.Events, "client_write_failed")
	}
	// The HTTP status is already 200; the access-log Code carries the
	// stream's real verdict.
	o.finish(http.StatusOK, oc.code, err)
	if flusher != nil {
		flusher.Flush()
	}
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

// addActive moves the count of requests that hold a submitted stream
// (/statusz active_requests, the serve.active gauge).
func (s *Server) addActive(d int) {
	s.mu.Lock()
	s.active += d
	obsv.SetGauge("serve.active", float64(s.active))
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
		w.Header().Set("Retry-After", retryAfter)
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
	active := s.active
	tenants := maps.Clone(s.tenants)
	s.mu.Unlock()
	var team tensor.TeamStats
	s.dec.TeamStats(&team)
	w.Header().Set("Content-Type", "application/json")
	status := map[string]any{
		"draining":          s.draining.Load(),
		"active_requests":   active,
		"queue_depth":       s.sched.QueueDepth(),
		"slots":             s.dec.Slots(),
		"reserved_kv_bytes": s.adm.ReservedBytes(),
		"tenants":           tenants,
		"kernel":            tensor.KernelPath(),
		"team": map[string]any{
			"lanes": len(team.Ran), "steps": team.Steps, "units": team.Units,
			"ran": team.Ran, "stolen": team.Stolen,
		},
	}
	if len(s.cfg.SLO) > 0 {
		slo := make([]obsv.SLOStatus, len(s.cfg.SLO))
		for i, o := range s.cfg.SLO {
			slo[i] = o.Status(obsv.Global())
		}
		status["slo"] = slo
	}
	json.NewEncoder(w).Encode(status)
}

// Drain gracefully stops the server: admission is closed immediately (new
// requests get 503 + Retry-After), in-flight streams get up to DrainTimeout
// to finish, and then the decode goroutine is stopped with cause
// ErrDraining, which ends every survivor 503 draining. It returns an error
// if the KV arena does not drain back to zero bytes — the invariant the
// chaos CI job pins. Call exactly once; later calls return immediately.
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
	}
	s.serveCancel(ErrDraining)
	<-s.serveDone // Serve returns after finishing every stream with ErrDraining
	if n := s.dec.ArenaActiveBytes(); n != 0 {
		return fmt.Errorf("serve: arena did not drain: %d bytes still active", n)
	}
	return nil
}
