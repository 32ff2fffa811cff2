package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// newTestServer stands up a Server over a fresh batch decoder plus an
// httptest front end. Cleanup drains the server (asserting the arena
// empties) before tearing the HTTP listener down.
func newTestServer(t *testing.T, m *nn.Model, slots int, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerOver(t, nn.NewBatchDecoder(m, slots, nil), cfg)
}

// newTestServerOver is newTestServer over a decoder the caller prepared
// (SetPacked); the cleanup closes it.
func newTestServerOver(t testing.TB, dec *nn.Decoder, cfg ServerConfig) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 2 * time.Second
	}
	srv := NewServer(dec, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		if err := srv.Drain(); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
		dec.Close()
	})
	return srv, ts
}

func postGenerate(t *testing.T, ts *httptest.Server, req generateRequest, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hreq, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		hreq.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	if _, err := body.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, body.Bytes()
}

// wantError asserts the uniform non-2xx shape: one JSON object with error
// and code always set.
func wantError(t *testing.T, resp *http.Response, body []byte, status int, code string) errorResponse {
	t.Helper()
	if resp.StatusCode != status {
		t.Fatalf("status = %d, want %d (body %s)", resp.StatusCode, status, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("non-2xx body is not one JSON object: %v (%s)", err, body)
	}
	if er.Code != code {
		t.Fatalf("code = %q, want %q (error %q)", er.Code, code, er.Error)
	}
	if er.Error == "" {
		t.Fatalf("error message empty in %s", body)
	}
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%d response missing Retry-After", status)
		}
	}
	return er
}

func TestServerGenerateMatchesSolo(t *testing.T) {
	m := testModel(400)
	_, ts := newTestServer(t, m, 2, ServerConfig{MaxQueue: 8})

	reqs := []generateRequest{
		{ID: "g1", Prompt: []int{1, 2, 3}, MaxTokens: 5},
		{ID: "g2", Prompt: []int{7}, MaxTokens: 6, Temperature: 0.8, TopK: 5, Seed: 9},
		{ID: "g3", Prompt: []int{30, 0, 4}, MaxTokens: 4, Temperature: 1.1, Seed: 3},
	}
	var wg sync.WaitGroup
	results := make([]generateResponse, len(reqs))
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req generateRequest) {
			defer wg.Done()
			resp, body := postGenerate(t, ts, req, nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("%s: status %d: %s", req.ID, resp.StatusCode, body)
				return
			}
			if err := json.Unmarshal(body, &results[i]); err != nil {
				t.Errorf("%s: %v", req.ID, err)
			}
		}(i, req)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, req := range reqs {
		want := soloGenerate(t, m, req.Prompt, nn.SampleConfig{
			Temperature: req.Temperature, TopK: req.TopK, MaxTokens: req.MaxTokens, Seed: req.Seed,
		})
		tokensEqual(t, req.ID, results[i].Tokens, want)
		if !results[i].Done {
			t.Fatalf("%s: Done not set", req.ID)
		}
	}
}

func TestServerStreamingNDJSON(t *testing.T) {
	m := testModel(401)
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 4})

	req := generateRequest{ID: "s1", Prompt: []int{5, 6}, MaxTokens: 6, Stream: true}
	blob, _ := json.Marshal(req)
	resp, err := ts.Client().Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var chunks []int
	var final generateResponse
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.Contains(line, []byte(`"token":`)) { // chunk lines; the final line has "tokens":
			var chunk streamChunk
			if err := json.Unmarshal(line, &chunk); err != nil {
				t.Fatalf("bad chunk line %s: %v", line, err)
			}
			chunks = append(chunks, chunk.Token)
			continue
		}
		if err := json.Unmarshal(line, &final); err != nil {
			t.Fatalf("bad NDJSON line %s: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	want := soloGenerate(t, m, req.Prompt, nn.SampleConfig{MaxTokens: req.MaxTokens})
	tokensEqual(t, "final", final.Tokens, want)
	tokensEqual(t, "chunks", chunks, want[len(req.Prompt):])
	if !final.Done {
		t.Fatal("final line missing done")
	}
}

func TestServerBadRequests(t *testing.T) {
	m := testModel(402)
	dir := t.TempDir()
	writeAdapterArtifact(t, dir, "wide", 1, nn.Config{Vocab: 31, Dim: 20, Hidden: 24})
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, Registry: NewRegistry(dir, 1)})

	t.Run("method", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/generate")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		wantError(t, resp, body.Bytes(), http.StatusMethodNotAllowed, "method_not_allowed")
	})
	t.Run("bad-json", func(t *testing.T) {
		resp, err := ts.Client().Post(ts.URL+"/v1/generate", "application/json", strings.NewReader("{nope"))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body bytes.Buffer
		body.ReadFrom(resp.Body)
		wantError(t, resp, body.Bytes(), http.StatusBadRequest, "bad_request")
	})
	cases := []struct {
		name   string
		req    generateRequest
		hdr    map[string]string
		status int
		code   string
	}{
		{"empty-prompt", generateRequest{ID: "b1", MaxTokens: 4}, nil, 400, "bad_request"},
		{"overlong", generateRequest{ID: "b2", Prompt: []int{1, 2}, MaxTokens: 1000}, nil, 400, "bad_request"},
		{"bad-temperature", generateRequest{ID: "b3", Prompt: []int{1}, MaxTokens: 2, Temperature: -1}, nil, 400, "bad_request"},
		{"zero-max-tokens", generateRequest{ID: "b4", Prompt: []int{1}}, nil, 400, "bad_request"},
		{"bad-deadline", generateRequest{ID: "b5", Prompt: []int{1}, MaxTokens: 2},
			map[string]string{"X-Edgellm-Deadline-Ms": "soon"}, 400, "bad_request"},
		// A sound artifact built for a wider model: refused at the door,
		// streaming or not, before it waits for a slot.
		{"adapter-mismatch", generateRequest{ID: "b6", Adapter: "wide", Prompt: []int{1}, MaxTokens: 2}, nil, 422, "adapter_mismatch"},
		{"adapter-mismatch-stream", generateRequest{ID: "b7", Adapter: "wide", Prompt: []int{1}, MaxTokens: 2, Stream: true}, nil, 422, "adapter_mismatch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postGenerate(t, ts, tc.req, tc.hdr)
			wantError(t, resp, body, tc.status, tc.code)
		})
	}
}

// writeAdapterArtifact saves a deterministic test adapter under dir/name.
func writeAdapterArtifact(t testing.TB, dir, name string, seed int64, cfg nn.Config) {
	t.Helper()
	a := makeTestAdapter(t, name, seed, cfg)
	if err := a.SaveFile(filepath.Join(dir, name)); err != nil {
		t.Fatal(err)
	}
}

func TestServerAdapterFlow(t *testing.T) {
	m := testModel(403)
	dir := t.TempDir()
	writeAdapterArtifact(t, dir, "tenant-a", 100, m.Cfg)
	writeAdapterArtifact(t, dir, "tenant-bad", 200, m.Cfg)

	// Corrupt tenant-bad's artifact: any flipped bit must surface as a clean
	// 422, never a panic (the CRC footer catches every single-bit flip).
	path := filepath.Join(dir, "tenant-bad")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fault.NewCorrupter(7).FlipRandomBit(blob)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, m, 1, ServerConfig{
		MaxQueue: 4,
		Registry: NewRegistry(dir, 2),
	})

	// Solo reference under the adapter, on a private decoder over the same
	// model.
	prompt := []int{3, 4}
	scfg := nn.SampleConfig{MaxTokens: 4}
	adp := makeTestAdapter(t, "tenant-a", 100, m.Cfg)
	solo := nn.NewDecoder(m)
	if err := solo.SetAdapter(adp); err != nil {
		t.Fatal(err)
	}
	want, err := solo.Generate(prompt, scfg)
	if err != nil {
		t.Fatal(err)
	}
	solo.Close()

	resp, body := postGenerate(t, ts, generateRequest{
		ID: "a1", Adapter: "tenant-a", Prompt: prompt, MaxTokens: scfg.MaxTokens,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("adapter generate: %d %s", resp.StatusCode, body)
	}
	var gr generateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	tokensEqual(t, "adapter tokens", gr.Tokens, want)

	t.Run("missing-404", func(t *testing.T) {
		resp, body := postGenerate(t, ts, generateRequest{
			ID: "a2", Adapter: "nope", Prompt: []int{1}, MaxTokens: 2,
		}, nil)
		wantError(t, resp, body, http.StatusNotFound, "adapter_not_found")
	})
	t.Run("corrupt-422", func(t *testing.T) {
		resp, body := postGenerate(t, ts, generateRequest{
			ID: "a3", Adapter: "tenant-bad", Prompt: []int{1}, MaxTokens: 2,
		}, nil)
		wantError(t, resp, body, http.StatusUnprocessableEntity, "adapter_corrupt")
	})
	t.Run("adapters-endpoint", func(t *testing.T) {
		resp, err := ts.Client().Get(ts.URL + "/v1/adapters")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var listing struct {
			Resident  []string `json:"resident"`
			Available []string `json:"available"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
			t.Fatal(err)
		}
		if len(listing.Resident) != 1 || listing.Resident[0] != "tenant-a" {
			t.Fatalf("resident = %v, want [tenant-a]", listing.Resident)
		}
		if len(listing.Available) != 2 {
			t.Fatalf("available = %v, want both artifacts", listing.Available)
		}
	})
}

// TestLyingDimAdapterIs422: an adapter artifact that is well framed — magic,
// a header naming one target — but whose first tensor declares 2^14 × 2^14
// over no payload is a corrupt adapter, through Registry.Acquire and through
// the HTTP front end, and neither path allocates the gigabyte it declares.
func TestLyingDimAdapterIs422(t *testing.T) {
	dir := t.TempDir()
	err := artifact.WriteFile(filepath.Join(dir, "huge"), func(w io.Writer) error {
		aw := artifact.NewWriter(w, artifact.Magic{'E', 'L', 'L', 'M', 'A', 'D', 'P', '1'})
		aw.Header(map[string]any{"name": "huge", "alpha": 4, "rank": 2, "targets": []string{"block0.wq"}})
		aw.Write([]byte("ELT1"))
		binary.Write(aw, binary.LittleEndian, []int32{2, 1 << 14, 1 << 14})
		return aw.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, testModel(406), 1, ServerConfig{MaxQueue: 2, Registry: NewRegistry(dir, 1)})

	cost := fault.Allocated(func() { _, err = NewRegistry(dir, 1).Acquire("huge") })
	var corrupt *CorruptAdapterError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Acquire returned %v, want *CorruptAdapterError", err)
	}
	if cost >= 4<<20 {
		t.Fatalf("Acquire allocated %d bytes on a lying dimension, want < 4 MiB", cost)
	}
	cost = fault.Allocated(func() {
		resp, body := postGenerate(t, ts, generateRequest{ID: "h1", Adapter: "huge", Prompt: []int{1}, MaxTokens: 2}, nil)
		wantError(t, resp, body, http.StatusUnprocessableEntity, "adapter_corrupt")
	})
	if cost >= 4<<20 {
		t.Fatalf("the request allocated %d bytes on a lying dimension, want < 4 MiB", cost)
	}
}

func TestRegistryLRUAndBusy(t *testing.T) {
	m := testModel(404)
	dir := t.TempDir()
	writeAdapterArtifact(t, dir, "a", 1, m.Cfg)
	writeAdapterArtifact(t, dir, "b", 2, m.Cfg)
	reg := NewRegistry(dir, 1)

	if _, err := reg.Acquire("a"); err != nil {
		t.Fatal(err)
	}
	// Bound reached with "a" pinned: loading "b" must shed, not grow.
	if _, err := reg.Acquire("b"); !errors.Is(err, ErrRegistryBusy) {
		t.Fatalf("acquire b while a pinned: %v, want ErrRegistryBusy", err)
	}
	reg.Release("a")
	// Unpinned "a" is now the LRU victim: "b" evicts it.
	if _, err := reg.Acquire("b"); err != nil {
		t.Fatal(err)
	}
	if res := reg.Resident(); len(res) != 1 || res[0] != "b" {
		t.Fatalf("resident = %v, want [b]", res)
	}
	reg.Release("b")

	if _, err := reg.Acquire("../escape"); !errors.Is(err, ErrAdapterNotFound) {
		t.Fatalf("path-escaping name: %v, want ErrAdapterNotFound", err)
	}
	if _, err := reg.Acquire("ghost"); !errors.Is(err, ErrAdapterNotFound) {
		t.Fatalf("missing artifact: %v, want ErrAdapterNotFound", err)
	}
}

// holdGenerate posts a stall-injected request on its own goroutine and
// returns a release function (cancels the client context) plus a channel
// yielding the final status code. The injected stall blocks the decode loop
// at the request's halfway token, deterministically pinning the stream
// in-flight until released or killed.
func holdGenerate(t *testing.T, ts *httptest.Server, req generateRequest) (release func(), done chan int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done = make(chan int, 1)
	blob, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(blob))
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		var sink bytes.Buffer
		sink.ReadFrom(resp.Body)
		done <- resp.StatusCode
	}()
	return cancel, done
}

// waitStatusz polls /statusz until pred accepts the decoded status or the
// deadline passes.
func waitStatusz(t *testing.T, ts *httptest.Server, pred func(map[string]any) bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/statusz")
		if err != nil {
			t.Fatal(err)
		}
		var status map[string]any
		err = json.NewDecoder(resp.Body).Decode(&status)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if pred(status) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("statusz never reached the expected state")
}

func TestServerOverloadSheds429(t *testing.T) {
	m := testModel(405)
	inj, err := fault.ParseSpec("stall=HOLD")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 1, Injector: inj})

	// HOLD stalls the lone decode slot; Q1 fills the one queue place.
	releaseHold, holdDone := holdGenerate(t, ts, generateRequest{ID: "HOLD", Prompt: []int{1, 2}, MaxTokens: 6})
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })
	releaseQ1, q1Done := holdGenerate(t, ts, generateRequest{ID: "Q1", Prompt: []int{3}, MaxTokens: 2})
	defer releaseQ1()
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 2 })

	// The building is full: slots(1) + queue(1) both occupied.
	resp, body := postGenerate(t, ts, generateRequest{ID: "shed", Prompt: []int{4}, MaxTokens: 2}, nil)
	wantError(t, resp, body, http.StatusTooManyRequests, "overloaded")

	// Releasing HOLD (client disconnect) unblocks the decode loop; Q1 then
	// decodes normally and must match a solo run exactly.
	releaseHold()
	<-holdDone
	if code := <-q1Done; code != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200", code)
	}
}

func TestServerTenantCap429(t *testing.T) {
	m := testModel(406)
	inj, err := fault.ParseSpec("stall=HOLD")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 2, ServerConfig{MaxQueue: 4, TenantSlots: 1, Injector: inj})

	releaseHold, holdDone := holdGenerate(t, ts, generateRequest{
		ID: "HOLD", Tenant: "t1", Prompt: []int{1, 2}, MaxTokens: 6,
	})
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })

	resp, body := postGenerate(t, ts, generateRequest{
		ID: "t1-again", Tenant: "t1", Prompt: []int{3}, MaxTokens: 2,
	}, nil)
	wantError(t, resp, body, http.StatusTooManyRequests, "tenant_limit")

	releaseHold()
	<-holdDone
	// The cap is per-tenant and released with the stream: t1 admits again.
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) == 0 })
	resp, body = postGenerate(t, ts, generateRequest{
		ID: "t1-later", Tenant: "t1", Prompt: []int{3}, MaxTokens: 2,
	}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after release: %d %s", resp.StatusCode, body)
	}
}

func TestServerDeadlineExceeded504(t *testing.T) {
	m := testModel(407)
	inj, err := fault.ParseSpec("stall=SLOW")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, Injector: inj})

	// SLOW stalls mid-generation; the 80ms header deadline must kill it with
	// a typed 504 and reclaim its slot.
	resp, body := postGenerate(t, ts, generateRequest{ID: "SLOW", Prompt: []int{1, 2}, MaxTokens: 6},
		map[string]string{"X-Edgellm-Deadline-Ms": "80"})
	wantError(t, resp, body, http.StatusGatewayTimeout, "deadline_exceeded")

	// The slot is free again: a healthy request decodes solo-identically.
	want := soloGenerate(t, m, []int{5}, nn.SampleConfig{MaxTokens: 3})
	resp, body = postGenerate(t, ts, generateRequest{ID: "ok", Prompt: []int{5}, MaxTokens: 3}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("after deadline kill: %d %s", resp.StatusCode, body)
	}
	var gr generateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	tokensEqual(t, "post-deadline", gr.Tokens, want)
}

func TestServerStallWatchdog504(t *testing.T) {
	m := testModel(408)
	inj, err := fault.ParseSpec("stall=W1")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, StallTimeout: 80 * time.Millisecond, Injector: inj})

	resp, body := postGenerate(t, ts, generateRequest{ID: "W1", Prompt: []int{1, 2}, MaxTokens: 6}, nil)
	wantError(t, resp, body, http.StatusGatewayTimeout, "stalled")
	if !strings.Contains(string(body), "stall") {
		t.Fatalf("stall error lost its diagnosis: %s", body)
	}
}

func TestServerMemoryAdmission(t *testing.T) {
	m := testModel(409)
	cfg := m.Cfg
	// Budget fits exactly one 8-token stream's KV need.
	oneStream := govern.ServeKVBytes(cfg.Layers, cfg.Dim, 8)
	inj, err := fault.ParseSpec("stall=HOLD")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 2, ServerConfig{
		MaxQueue: 4,
		Budget:   govern.Budget{MemoryBytes: oneStream},
		Injector: inj,
	})

	t.Run("unfittable-413", func(t *testing.T) {
		resp, body := postGenerate(t, ts, generateRequest{
			ID: "huge", Prompt: []int{1, 2, 3, 4, 5}, MaxTokens: 10,
		}, nil)
		wantError(t, resp, body, http.StatusRequestEntityTooLarge, "unfittable")
	})
	t.Run("transient-429", func(t *testing.T) {
		releaseHold, holdDone := holdGenerate(t, ts, generateRequest{
			ID: "HOLD", Prompt: []int{1, 2}, MaxTokens: 6, // 8 tokens: the whole budget
		})
		defer func() { releaseHold(); <-holdDone }()
		waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })
		resp, body := postGenerate(t, ts, generateRequest{
			ID: "evicted", Prompt: []int{1}, MaxTokens: 3,
		}, nil)
		wantError(t, resp, body, http.StatusTooManyRequests, "memory")
	})
	t.Run("fits-after-release", func(t *testing.T) {
		waitStatusz(t, ts, func(s map[string]any) bool { return s["reserved_kv_bytes"].(float64) == 0 })
		resp, body := postGenerate(t, ts, generateRequest{
			ID: "fits", Prompt: []int{1}, MaxTokens: 3,
		}, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fitting request: %d %s", resp.StatusCode, body)
		}
	})
}

func TestServerDrainShedsAndEmptiesArena(t *testing.T) {
	m := testModel(410)
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	srv := NewServer(dec, ServerConfig{MaxQueue: 8, DrainTimeout: 500 * time.Millisecond})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A burst of healthy requests races the drain: each must either finish
	// with solo-identical tokens or be shed/cancelled with a well-formed
	// typed error — and the arena must be empty afterwards either way.
	const n = 8
	type outcome struct {
		status int
		body   []byte
		req    generateRequest
	}
	outcomes := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		req := generateRequest{ID: fmt.Sprintf("d%d", i), Prompt: []int{i%7 + 1, 2}, MaxTokens: 4}
		wg.Add(1)
		go func(req generateRequest) {
			defer wg.Done()
			blob, _ := json.Marshal(req)
			resp, err := ts.Client().Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(blob))
			if err != nil {
				outcomes <- outcome{status: -1, req: req}
				return
			}
			defer resp.Body.Close()
			var body bytes.Buffer
			body.ReadFrom(resp.Body)
			outcomes <- outcome{status: resp.StatusCode, body: body.Bytes(), req: req}
		}(req)
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	close(outcomes)
	for oc := range outcomes {
		switch oc.status {
		case http.StatusOK:
			var gr generateResponse
			if err := json.Unmarshal(oc.body, &gr); err != nil {
				t.Fatalf("%s: %v", oc.req.ID, err)
			}
			want := soloGenerate(t, m, oc.req.Prompt, nn.SampleConfig{MaxTokens: oc.req.MaxTokens})
			tokensEqual(t, oc.req.ID, gr.Tokens, want)
		case -1:
			t.Fatalf("%s: transport error during drain", oc.req.ID)
		default:
			var er errorResponse
			if err := json.Unmarshal(oc.body, &er); err != nil || er.Code == "" {
				t.Fatalf("%s: malformed drain rejection %s", oc.req.ID, oc.body)
			}
		}
	}
	if n := dec.ArenaActiveBytes(); n != 0 {
		t.Fatalf("arena holds %d bytes after drain", n)
	}

	// Post-drain: healthz refuses with 503 + Retry-After and the distinct
	// {"status":"draining"} body, so black-box probes can tell a deliberate
	// drain from overload shedding without parsing error codes.
	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining healthz missing Retry-After")
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(body.Bytes(), &health); err != nil || health.Status != "draining" {
		t.Fatalf("draining healthz body = %q, want {\"status\":\"draining\"} (err %v)", body.String(), err)
	}

	blob, _ := json.Marshal(generateRequest{ID: "late", Prompt: []int{1}, MaxTokens: 2})
	post, err := ts.Client().Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	body.Reset()
	body.ReadFrom(post.Body)
	post.Body.Close()
	wantError(t, post, body.Bytes(), http.StatusServiceUnavailable, "draining")

	if err := srv.Drain(); err != nil {
		t.Fatalf("second drain must be a no-op: %v", err)
	}
}

func TestServerInjectedAdmissionFail(t *testing.T) {
	m := testModel(411)
	inj, err := fault.ParseSpec("fail=R9")
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, Injector: inj})

	resp, body := postGenerate(t, ts, generateRequest{ID: "R9", Prompt: []int{1}, MaxTokens: 2}, nil)
	wantError(t, resp, body, http.StatusServiceUnavailable, "injected_fault")

	// Other request IDs are untouched by the injection.
	resp, body = postGenerate(t, ts, generateRequest{ID: "ok", Prompt: []int{1}, MaxTokens: 2}, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("uninjected request: %d %s", resp.StatusCode, body)
	}
}

func TestServerStatusz(t *testing.T) {
	m := testModel(412)
	_, ts := newTestServer(t, m, 3, ServerConfig{MaxQueue: 2})

	resp, err := ts.Client().Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if status["draining"].(bool) {
		t.Fatal("fresh server reports draining")
	}
	if got := status["slots"].(float64); got != 3 {
		t.Fatalf("slots = %v, want 3", got)
	}
	for _, key := range []string{"active_requests", "queue_depth", "reserved_kv_bytes", "tenants"} {
		if _, ok := status[key]; !ok {
			t.Fatalf("statusz missing %q: %v", key, status)
		}
	}
	if got := status["kernel"]; got != tensor.KernelPath() {
		t.Fatalf("statusz kernel = %v, want %q", got, tensor.KernelPath())
	}
}

// FuzzGenerateRequest feeds the /v1/generate body — the one parser of outside
// bytes in the serving path — to a live server: whatever the bytes, the
// answer is a 200 or a typed 4xx (one JSON object with error and code set),
// the KV arena holds no bytes once the handler has returned, and nothing
// panics.
func FuzzGenerateRequest(f *testing.F) {
	m := testModel(407)
	dir := f.TempDir()
	writeAdapterArtifact(f, dir, "tenant-a", 100, m.Cfg)
	dec := nn.NewBatchDecoder(m, 2, nil)
	srv, _ := newTestServerOver(f, dec, ServerConfig{MaxQueue: 2, Registry: NewRegistry(dir, 1)})
	for _, seed := range []string{
		`{"id":"a","prompt":[1,2,3],"max_tokens":4}`,
		`{"id":"b","tenant":"t","adapter":"tenant-a","prompt":[4],"max_tokens":3,"temperature":0.8,"top_k":5,"seed":7,"stream":true}`,
		`{"adapter":"ghost","prompt":[1],"max_tokens":1}`,
		`{"prompt":[31],"max_tokens":1}`,
		`{"prompt":[-1,1e9],"max_tokens":2,"top_k":-3}`,
		`{"prompt":[],"max_tokens":99999999999999999999}`,
		`{nope`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/generate", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			if rec.Code < 400 || rec.Code > 499 {
				t.Fatalf("status %d for body %q (%s)", rec.Code, body, rec.Body)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" || er.Code == "" {
				t.Fatalf("status %d for body %q is not a typed error: %s", rec.Code, body, rec.Body)
			}
		}
		if n := dec.ArenaActiveBytes(); n != 0 {
			t.Fatalf("arena holds %d bytes after body %q", n, body)
		}
	})
}
