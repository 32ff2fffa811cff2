package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"testing"

	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/obsv"
)

// TestOutcomeOf: every way a request ends, admission reject or stream end,
// maps to one status, code, access-log event, counter and shed reason, and a
// wrapped error classifies as what it wraps.
func TestOutcomeOf(t *testing.T) {
	stall := &govern.StallError{Stage: "serve:r1", Phase: "heartbeat"}
	wrap := func(err error) error { return fmt.Errorf("outer: %w", err) }
	cases := []struct {
		name string
		err  error
		want outcome
	}{
		// Admission rejects, built the way handleGenerate builds them.
		{"method", reject(errMethod, errors.New("serve: GET not allowed")), outcome{http.StatusMethodNotAllowed, "method_not_allowed", "", "", ""}},
		{"refused-draining", errRefused, outcome{http.StatusServiceUnavailable, "draining", "", "serve.drained", ""}},
		{"parse", reject(errInvalid, fmt.Errorf("serve: parse request: %w", io.ErrUnexpectedEOF)), outcome{http.StatusBadRequest, "bad_request", "", "", ""}},
		{"injected-fail", &fault.PermanentError{Msg: "injected admission failure in r1"}, outcome{http.StatusServiceUnavailable, "injected_fault", "injected_fault", "", "injected"}},
		{"check", reject(errInvalid, errors.New("serve: empty prompt")), outcome{http.StatusBadRequest, "bad_request", "", "", ""}},
		{"tenant", reject(errTenantLimit, errors.New("serve: tenant t is at its 1-request limit")), outcome{http.StatusTooManyRequests, "tenant_limit", "", "", "tenant"}},
		{"queue", reject(errQueueFull, errors.New("serve: queue full (0 waiting + 1 active)")), outcome{http.StatusTooManyRequests, "overloaded", "", "", "queue"}},
		{"unfittable", &govern.OverBudgetError{Need: 9, Budget: 8, Permanent: true}, outcome{http.StatusRequestEntityTooLarge, "unfittable", "", "", "unfittable"}},
		{"memory", &govern.OverBudgetError{Need: 4, Reserved: 8, Budget: 8}, outcome{http.StatusTooManyRequests, "memory", "", "", "memory"}},
		{"no-registry", fmt.Errorf("%w: no adapter registry configured", ErrAdapterNotFound), outcome{http.StatusNotFound, "adapter_not_found", "", "", ""}},
		{"adapter-not-found", fmt.Errorf("%w: ghost", ErrAdapterNotFound), outcome{http.StatusNotFound, "adapter_not_found", "", "", ""}},
		{"adapter-corrupt", &CorruptAdapterError{Name: "a", Err: errors.New("checksum mismatch")}, outcome{http.StatusUnprocessableEntity, "adapter_corrupt", "", "", ""}},
		{"registry-busy", ErrRegistryBusy, outcome{http.StatusTooManyRequests, "adapters_busy", "", "", "adapters"}},
		{"bad-deadline", reject(errInvalid, errors.New(`serve: bad X-Edgellm-Deadline-Ms "soon"`)), outcome{http.StatusBadRequest, "bad_request", "", "", ""}},
		{"submit-closed", reject(errRefused, ErrClosed), outcome{http.StatusServiceUnavailable, "draining", "", "serve.drained", ""}},
		{"submit-mismatch", fmt.Errorf("%w: nn: adapter a: no target", ErrAdapterMismatch), outcome{http.StatusUnprocessableEntity, "adapter_mismatch", "", "", ""}},
		{"submit-check", reject(errInvalid, errors.New("serve: empty prompt")), outcome{http.StatusBadRequest, "bad_request", "", "", ""}},
		// A stream's terminal error.
		{"stall", stall, outcome{http.StatusGatewayTimeout, "stalled", "stall_killed", "serve.stalled", ""}},
		{"deadline", context.DeadlineExceeded, outcome{http.StatusGatewayTimeout, "deadline_exceeded", "deadline", "serve.deadline_exceeded", ""}},
		{"draining", ErrDraining, outcome{http.StatusServiceUnavailable, "draining", "drain_cancelled", "serve.drain_cancelled", ""}},
		{"closed", ErrClosed, outcome{http.StatusServiceUnavailable, "draining", "drain_cancelled", "serve.drain_cancelled", ""}},
		{"panic", &StreamPanicError{ID: "r1", Value: "boom"}, outcome{http.StatusInternalServerError, "stream_panic", "stream_panic", "", ""}},
		{"injected-cancel", errInjectedCancel, outcome{http.StatusInternalServerError, "cancelled", "injected_cancel", "", ""}},
		{"disconnect", errDisconnected, outcome{http.StatusInternalServerError, "cancelled", "disconnect", "serve.disconnects", ""}},
		{"cancelled", ErrCancelled, outcome{http.StatusInternalServerError, "cancelled", "", "", ""}},
		{"other", errors.New("decoder step failed"), outcome{http.StatusInternalServerError, "internal", "", "", ""}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := outcomeOf(tc.err); got != tc.want {
				t.Fatalf("outcomeOf(%v) = %+v, want %+v", tc.err, got, tc.want)
			}
			if got := outcomeOf(wrap(tc.err)); got != tc.want {
				t.Fatalf("outcomeOf(wrapped %v) = %+v, want %+v", tc.err, got, tc.want)
			}
		})
	}
	if got := outcomeOf(nil); got != (outcome{http.StatusOK, "ok", "", "", ""}) {
		t.Fatalf("outcomeOf(nil) = %+v, want a plain 200 ok", got)
	}
}

// TestCancelCause: a plain cancellation is the client going away; a stall
// or a deadline cause passes through.
func TestCancelCause(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cancelCause(ctx); !errors.Is(err, errDisconnected) {
		t.Fatalf("cancelled context: %v, want errDisconnected", err)
	}
	stall := &govern.StallError{Stage: "serve:r1", Phase: "heartbeat"}
	cctx, ccancel := context.WithCancelCause(context.Background())
	ccancel(stall)
	if err := cancelCause(cctx); err != stall {
		t.Fatalf("stalled context: %v, want the StallError", err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 0)
	defer dcancel()
	<-dctx.Done()
	if err := cancelCause(dctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired context: %v, want DeadlineExceeded", err)
	}
}

// TestServerCheckBeforeAdmission: a request Submit would refuse gets its
// 400 before it takes a tenant slot, so it is not mistaken for load while
// its tenant's only slot is held. A max_tokens that overflows prompt +
// max_tokens is refused too, not admitted as a negative length.
func TestServerCheckBeforeAdmission(t *testing.T) {
	m := testModel(440)
	inj, err := fault.ParseSpec("stall=HOLD")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 2, ServerConfig{MaxQueue: 4, TenantSlots: 1, Injector: inj})

	releaseHold, holdDone := holdGenerate(t, ts, generateRequest{
		ID: "HOLD", Tenant: "t1", Prompt: []int{1, 2}, MaxTokens: 6,
	})
	defer func() { releaseHold(); <-holdDone }()
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })

	resp, body := postGenerate(t, ts, generateRequest{
		ID: "t1-oov", Tenant: "t1", Prompt: []int{m.Cfg.Vocab + 5}, MaxTokens: 2,
	}, nil)
	wantError(t, resp, body, http.StatusBadRequest, "bad_request")
	resp, body = postGenerate(t, ts, generateRequest{
		ID: "t2-overflow", Tenant: "t2", Prompt: []int{1, 2}, MaxTokens: math.MaxInt,
	}, nil)
	wantError(t, resp, body, http.StatusBadRequest, "bad_request")
}

// TestServerDrainCancelsSurvivor: a request still queued when the drain's
// grace period ends finishes 503 draining, with the drain_cancelled event
// and serve.drain_cancelled counted once. The stalled stream ahead of it,
// whose client left first, keeps its own cause.
func TestServerDrainCancelsSurvivor(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)
	var logBuf bytes.Buffer
	al := NewAccessLog(&logBuf)
	m := testModel(441)
	inj, err := fault.ParseSpec("stall=HOLD")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, DrainTimeout: 1, AccessLog: al, Injector: inj})

	// HOLD blocks the decode loop in the lone slot; Q waits in the queue.
	releaseHold, holdDone := holdGenerate(t, ts, generateRequest{ID: "HOLD", Prompt: []int{1, 2}, MaxTokens: 6})
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })
	_, qDone := holdGenerate(t, ts, generateRequest{ID: "Q", Prompt: []int{3}, MaxTokens: 2})
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 2 })

	// Release HOLD only once Drain has cancelled the decode loop.
	serveCancel := srv.serveCancel
	cancelled := make(chan struct{})
	srv.serveCancel = func(cause error) { serveCancel(cause); close(cancelled) }
	drained := make(chan error, 1)
	go func() { drained <- srv.Drain() }()
	<-cancelled
	releaseHold()
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	<-holdDone
	if code := <-qDone; code != http.StatusServiceUnavailable {
		t.Fatalf("drained survivor finished %d, want 503", code)
	}
	ts.Close() // every handler has returned: the access log is complete
	if err := al.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadAccessLog(bytes.NewReader(logBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byID := map[string]AccessRecord{}
	for _, r := range recs {
		byID[r.ID] = r
	}
	if q := byID["Q"]; q.Code != "draining" || !slices.Equal(q.Events, []string{"drain_cancelled"}) {
		t.Fatalf("survivor record = %+v, want code draining with event drain_cancelled", q)
	}
	if h := byID["HOLD"]; h.Code != "cancelled" || !slices.Equal(h.Events, []string{"disconnect"}) {
		t.Fatalf("HOLD record = %+v, want its own disconnect", h)
	}
	if n := rec.CounterTotal("serve.drain_cancelled"); n != 1 {
		t.Fatalf("serve.drain_cancelled = %d, want 1", n)
	}
	if n := rec.CounterTotal("serve.disconnects"); n != 1 {
		t.Fatalf("serve.disconnects = %d, want 1", n)
	}
}
