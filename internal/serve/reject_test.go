package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
)

// TestAdmissionRejects drives, over HTTP, each way /v1/generate refuses a
// request before it reaches the decoder, and pins what every observer sees:
// the status, the code, the body's error text, whether Retry-After is sent,
// exactly one access-log record with that code and its events, and the
// serve.shed{reason} and serve.drained counts. Submit's own Check failure is
// not here: the handler runs the same Check first, so over HTTP a request
// that reaches Submit has passed it (TestOutcomeOf has its row).
func TestAdmissionRejects(t *testing.T) {
	m := testModel(460)
	dir := t.TempDir()
	writeAdapterArtifact(t, dir, "a", 1, m.Cfg)
	writeAdapterArtifact(t, dir, "b", 2, m.Cfg)
	wide := nn.Config{Vocab: 31, Dim: 20, Hidden: 24}
	writeAdapterArtifact(t, dir, "wide", 3, wide)
	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not an adapter"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, loadErr := nn.LoadAdapterFile(garbage)
	if loadErr == nil {
		t.Fatal("garbage artifact loaded")
	}
	solo := nn.NewDecoder(m)
	mismatch := solo.CheckAdapter(makeTestAdapter(t, "wide", 3, wide))
	solo.Close()
	if mismatch == nil {
		t.Fatal("wide adapter fits the test model")
	}
	oneStream := govern.ServeKVBytes(m.Cfg.Layers, m.Cfg.Dim, 8) // HOLD's 2 + 6 tokens
	tooBig := govern.ServeKVBytes(m.Cfg.Layers, m.Cfg.Dim, 15)
	needs4 := govern.ServeKVBytes(m.Cfg.Layers, m.Cfg.Dim, 4)
	ok := generateRequest{Prompt: []int{1}, MaxTokens: 2}
	with := func(f func(*generateRequest)) generateRequest {
		r := ok
		f(&r)
		return r
	}
	hold := func(f func(*generateRequest)) *generateRequest {
		r := generateRequest{ID: "HOLD", Tenant: "t1", Prompt: []int{1, 2}, MaxTokens: 6}
		if f != nil {
			f(&r)
		}
		return &r
	}

	cases := []struct {
		name    string
		slots   int
		cfg     ServerConfig
		hold    *generateRequest // a stalled stream in flight while the reject runs
		setup   func(*Server)
		method  string // POST when empty
		body    string // ok's JSON when req and body are empty
		req     generateRequest
		hdr     map[string]string
		status  int
		code    string
		msg     string
		retry   bool
		events  []string
		shed    string // serve.shed reason; "" for none
		drained int64
	}{
		{name: "method", method: http.MethodGet,
			status: 405, code: "method_not_allowed", msg: "serve: GET not allowed"},
		{name: "draining", setup: func(s *Server) { s.Drain() },
			status: 503, code: "draining", msg: "serve: server is draining", retry: true, drained: 1},
		{name: "parse", body: "{nope",
			status: 400, code: "bad_request",
			msg: "serve: parse request: invalid character 'n' looking for beginning of object key string"},
		{name: "injected",
			status: 503, code: "injected_fault", msg: "fault: permanent: injected admission failure in rej-injected",
			retry: true, events: []string{"injected_fault"}, shed: "injected"},
		{name: "check", req: with(func(r *generateRequest) { r.Prompt = nil }),
			status: 400, code: "bad_request", msg: "serve: empty prompt"},
		{name: "tenant", slots: 2, cfg: ServerConfig{TenantSlots: 1}, hold: hold(nil),
			req:    with(func(r *generateRequest) { r.Tenant = "t1" }),
			status: 429, code: "tenant_limit", msg: "serve: tenant t1 is at its 1-request limit",
			retry: true, shed: "tenant"},
		// A negative MaxQueue serves as 0: the lone slot is the building.
		{name: "queue", cfg: ServerConfig{MaxQueue: -1}, hold: hold(nil),
			status: 429, code: "overloaded", msg: "serve: queue full (0 waiting + 1 active)",
			retry: true, shed: "queue"},
		{name: "unfittable", cfg: ServerConfig{Budget: govern.Budget{MemoryBytes: oneStream}},
			req:    with(func(r *generateRequest) { r.Prompt, r.MaxTokens = []int{1, 2, 3, 4, 5}, 10 }),
			status: 413, code: "unfittable",
			msg:  (&govern.OverBudgetError{Need: tooBig, Budget: oneStream, Permanent: true}).Error(),
			shed: "unfittable"},
		{name: "memory", slots: 2, cfg: ServerConfig{Budget: govern.Budget{MemoryBytes: oneStream}}, hold: hold(nil),
			req:    with(func(r *generateRequest) { r.MaxTokens = 3 }),
			status: 429, code: "memory",
			msg:   (&govern.OverBudgetError{Need: needs4, Reserved: oneStream, Budget: oneStream}).Error(),
			retry: true, shed: "memory"},
		{name: "no-registry", req: with(func(r *generateRequest) { r.Adapter = "a" }),
			status: 404, code: "adapter_not_found", msg: "serve: adapter not found: no adapter registry configured"},
		{name: "not-found", cfg: ServerConfig{Registry: NewRegistry(dir, 1)},
			req:    with(func(r *generateRequest) { r.Adapter = "ghost" }),
			status: 404, code: "adapter_not_found", msg: "serve: adapter not found: ghost"},
		{name: "corrupt", cfg: ServerConfig{Registry: NewRegistry(dir, 1)},
			req:    with(func(r *generateRequest) { r.Adapter = "garbage" }),
			status: 422, code: "adapter_corrupt", msg: "serve: adapter garbage unusable: " + loadErr.Error()},
		{name: "busy", slots: 2, cfg: ServerConfig{Registry: NewRegistry(dir, 1)},
			hold:   hold(func(r *generateRequest) { r.Adapter = "a" }),
			req:    with(func(r *generateRequest) { r.Adapter = "b" }),
			status: 429, code: "adapters_busy", msg: "serve: all resident adapters are in use",
			retry: true, shed: "adapters"},
		{name: "deadline", hdr: map[string]string{"X-Edgellm-Deadline-Ms": "soon"},
			status: 400, code: "bad_request", msg: `serve: bad X-Edgellm-Deadline-Ms "soon"`},
		{name: "submit-closed", setup: func(s *Server) { s.sched.Close() },
			status: 503, code: "draining", msg: "serve: scheduler closed", retry: true, drained: 1},
		{name: "submit-mismatch", cfg: ServerConfig{Registry: NewRegistry(dir, 1)},
			req:    with(func(r *generateRequest) { r.Adapter = "wide" }),
			status: 422, code: "adapter_mismatch",
			msg: "serve: adapter does not fit the served model: " + mismatch.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := obsv.New()
			obsv.SetGlobal(rec)
			defer obsv.SetGlobal(nil)
			var logBuf bytes.Buffer
			al := NewAccessLog(&logBuf)
			inj, err := fault.ParseSpec("fail=rej-injected,stall=HOLD")
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			cfg.Injector, cfg.AccessLog = inj, al
			if cfg.MaxQueue == 0 {
				cfg.MaxQueue = 2
			}
			srv, ts := newTestServer(t, m, max(tc.slots, 1), cfg)
			var release func()
			var held chan int
			if tc.hold != nil {
				release, held = holdGenerate(t, ts, *tc.hold)
				defer release() // a failed assertion must not leave the decode loop stalled
				waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })
			}
			if tc.setup != nil {
				tc.setup(srv)
			}

			id := "rej-" + tc.name
			req := tc.req
			if req.MaxTokens == 0 {
				req = ok
			}
			req.ID = id
			body := tc.body
			if body == "" {
				blob, err := json.Marshal(req)
				if err != nil {
					t.Fatal(err)
				}
				body = string(blob)
			}
			method := tc.method
			if method == "" {
				method = http.MethodPost
			}
			hreq, err := http.NewRequest(method, ts.URL+"/v1/generate", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hreq.Header.Set(requestIDHeader, id)
			for k, v := range tc.hdr {
				hreq.Header.Set(k, v)
			}
			resp, err := ts.Client().Do(hreq)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			got.ReadFrom(resp.Body)
			resp.Body.Close()

			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, got.Bytes())
			}
			var er errorResponse
			if err := json.Unmarshal(got.Bytes(), &er); err != nil {
				t.Fatalf("body is not one JSON object: %v (%s)", err, got.Bytes())
			}
			if want := (errorResponse{ID: id, Error: tc.msg, Code: tc.code}); er != want {
				t.Fatalf("body = %+v, want %+v", er, want)
			}
			if h := resp.Header.Get(requestIDHeader); h != id {
				t.Fatalf("%s = %q, want %q", requestIDHeader, h, id)
			}
			if sent := resp.Header.Get("Retry-After") != ""; sent != tc.retry {
				t.Fatalf("Retry-After sent = %v, want %v", sent, tc.retry)
			}

			snap := rec.Snapshot()
			for key, n := range snap.Counters {
				if strings.HasPrefix(key, "serve.shed") && key != "serve.shed{reason="+tc.shed+"}" {
					t.Fatalf("%s = %d, want no such count", key, n)
				}
			}
			if tc.shed != "" {
				if n := snap.Counters["serve.shed{reason="+tc.shed+"}"]; n != 1 {
					t.Fatalf("serve.shed{reason=%s} = %d, want 1", tc.shed, n)
				}
			}
			if n := snap.Counters["serve.drained"]; n != tc.drained {
				t.Fatalf("serve.drained = %d, want %d", n, tc.drained)
			}
			// Every handler has returned once the held stream is released
			// and the listener closed: the access log is complete.
			if release != nil {
				release()
				<-held
			}
			ts.Close()
			if err := al.Close(); err != nil {
				t.Fatal(err)
			}
			checkRejectRecord(t, logBuf.Bytes(), id, tc.status, tc.code, tc.msg, tc.events)
		})
	}
}

// checkRejectRecord asserts the access log holds exactly one record for id,
// carrying the reject's status, code, error text and events.
func checkRejectRecord(t *testing.T, log []byte, id string, status int, code, msg string, events []string) {
	t.Helper()
	recs, err := ReadAccessLog(bytes.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	var mine []AccessRecord
	for _, r := range recs {
		if r.ID == id {
			mine = append(mine, r)
		}
	}
	if len(mine) != 1 {
		t.Fatalf("%d access-log records for %s, want 1: %+v", len(mine), id, recs)
	}
	r := mine[0]
	if r.Status != status || r.Code != code || r.Err != msg || !slices.Equal(r.Events, events) {
		t.Fatalf("record = %+v, want status %d code %q error %q events %v", r, status, code, msg, events)
	}
}
