package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"edgellm/internal/fault"
	"edgellm/internal/nn"
)

// TestChaosSoak is the acceptance pin for the hardened serving front end:
// faults are injected into five distinct serving stages — admission
// (ModeFail), the per-token hook (ModePanic), mid-stream cancellation
// (ModeCancel), the decode itself (ModeStall, killed by the watchdog), and
// the adapter artifact (a flipped bit caught by the CRC) — plus a client
// disconnect and an overload flood. Every in-flight stream must either
// complete with tokens identical to a solo Decoder.Generate or fail with a
// well-formed typed error, the overload must shed with 429 instead of
// queueing unboundedly, and after every phase the server drains with
// KVArena.ActiveBytes() == 0. The mixed-fault phase runs over the float32
// model and again with the same adapters over a packed backbone. Run it
// under -race: the CI serve-chaos job does.
func TestChaosSoak(t *testing.T) {
	m := testModel(500)
	dir := t.TempDir()
	writeAdapterArtifact(t, dir, "tenant-a", 100, m.Cfg)
	writeAdapterArtifact(t, dir, "tenant-b", 200, m.Cfg)
	writeAdapterArtifact(t, dir, "tenant-rot", 300, m.Cfg)
	rotPath := filepath.Join(dir, "tenant-rot")
	blob, err := os.ReadFile(rotPath)
	if err != nil {
		t.Fatal(err)
	}
	fault.NewCorrupter(13).FlipRandomBit(blob)
	if err := os.WriteFile(rotPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	t.Run("mixed-faults", func(t *testing.T) { chaosMixedFaults(t, m, nil, dir) })
	t.Run("mixed-faults-packed", func(t *testing.T) {
		pk := testModel(500)
		pm, err := nn.PackModel(pk, []nn.PackSpec{{Bits: 4}, {Bits: 3}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		chaosMixedFaults(t, pk, pm, dir)
	})
	t.Run("stall-watchdog", func(t *testing.T) { chaosStallWatchdog(t, m) })
	t.Run("overload-shed", func(t *testing.T) { chaosOverloadShed(t, m) })
}

// chaosJob is one request in the mixed-fault phase with its expected
// outcome. wantStatus 200 implies the tokens must equal the solo reference.
type chaosJob struct {
	req        generateRequest
	wantStatus int
	wantCode   string
	solo       []int
}

func chaosMixedFaults(t *testing.T, m *nn.Model, pm *nn.PackedModel, dir string) {
	inj, err := fault.ParseSpec("fail=CH-FAIL,panic=CH-PANIC,cancel=CH-CANCEL")
	if err != nil {
		t.Fatal(err)
	}
	dec := nn.NewBatchDecoder(m, 2, nil)
	if err := dec.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServerOver(t, dec, ServerConfig{
		MaxQueue: 16,
		// Bound 3: tenant-a and tenant-b stay pinned by in-flight streams,
		// and the corrupt artifact's load attempt still has a free slot —
		// its 422 must come from the CRC, not from residency pressure.
		Registry: NewRegistry(dir, 3),
		Injector: inj,
	})

	adapters := map[string]*nn.Adapter{
		"tenant-a": makeTestAdapter(t, "tenant-a", 100, m.Cfg),
		"tenant-b": makeTestAdapter(t, "tenant-b", 200, m.Cfg),
	}
	jobs := []*chaosJob{
		{req: generateRequest{ID: "h0", Prompt: []int{1, 2}, MaxTokens: 5}, wantStatus: 200},
		{req: generateRequest{ID: "h1", Prompt: []int{9}, MaxTokens: 6, Temperature: 0.9, TopK: 7, Seed: 4}, wantStatus: 200},
		{req: generateRequest{ID: "h2", Tenant: "alice", Adapter: "tenant-a", Prompt: []int{3, 4, 5}, MaxTokens: 4}, wantStatus: 200},
		{req: generateRequest{ID: "h3", Tenant: "bob", Adapter: "tenant-b", Prompt: []int{6, 7}, MaxTokens: 5, Temperature: 1.1, Seed: 11}, wantStatus: 200},
		{req: generateRequest{ID: "h4", Prompt: []int{22, 23}, MaxTokens: 3}, wantStatus: 200},
		{req: generateRequest{ID: "h5", Tenant: "alice", Adapter: "tenant-a", Prompt: []int{8}, MaxTokens: 6, Seed: 2, Temperature: 0.7}, wantStatus: 200},
		{req: generateRequest{ID: "CH-FAIL", Prompt: []int{1}, MaxTokens: 4}, wantStatus: 503, wantCode: "injected_fault"},
		{req: generateRequest{ID: "CH-PANIC", Prompt: []int{2, 3}, MaxTokens: 6}, wantStatus: 500, wantCode: "stream_panic"},
		{req: generateRequest{ID: "CH-CANCEL", Prompt: []int{4, 5}, MaxTokens: 6}, wantStatus: 500, wantCode: "cancelled"},
		{req: generateRequest{ID: "rot", Adapter: "tenant-rot", Prompt: []int{1}, MaxTokens: 3}, wantStatus: 422, wantCode: "adapter_corrupt"},
		{req: generateRequest{ID: "ghost", Adapter: "missing", Prompt: []int{1}, MaxTokens: 3}, wantStatus: 404, wantCode: "adapter_not_found"},
	}

	// Solo references on a private decoder over the server's model.
	{
		solo := nn.NewDecoder(m)
		if err := solo.SetPacked(pm); err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs {
			if j.wantStatus != 200 {
				continue
			}
			if err := solo.SetAdapter(adapters[j.req.Adapter]); err != nil {
				t.Fatal(err)
			}
			out, err := solo.Generate(j.req.Prompt, nn.SampleConfig{
				Temperature: j.req.Temperature, TopK: j.req.TopK,
				MaxTokens: j.req.MaxTokens, Seed: j.req.Seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			j.solo = out
		}
		solo.Close()
	}

	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *chaosJob) {
			defer wg.Done()
			resp, body := postGenerate(t, ts, j.req, nil)
			if j.wantStatus == 200 {
				if resp.StatusCode != 200 {
					t.Errorf("%s: status %d, want 200: %s", j.req.ID, resp.StatusCode, body)
					return
				}
				var gr generateResponse
				if err := json.Unmarshal(body, &gr); err != nil {
					t.Errorf("%s: %v", j.req.ID, err)
					return
				}
				if len(gr.Tokens) != len(j.solo) {
					t.Errorf("%s: %d tokens, solo produced %d", j.req.ID, len(gr.Tokens), len(j.solo))
					return
				}
				for i := range gr.Tokens {
					if gr.Tokens[i] != j.solo[i] {
						t.Errorf("%s: token %d = %d, solo %d", j.req.ID, i, gr.Tokens[i], j.solo[i])
						return
					}
				}
				return
			}
			// Injected failures must be well-formed typed rejections.
			if resp.StatusCode != j.wantStatus {
				t.Errorf("%s: status %d, want %d: %s", j.req.ID, resp.StatusCode, j.wantStatus, body)
				return
			}
			var er errorResponse
			if err := json.Unmarshal(body, &er); err != nil || er.Code != j.wantCode || er.Error == "" {
				t.Errorf("%s: malformed failure %s (want code %s)", j.req.ID, body, j.wantCode)
			}
		}(j)
	}

	// A streaming client that walks away mid-response: read one chunk, then
	// hang up. The disconnect must reclaim the slot; the outcome (finished
	// vs cancelled) is timing-dependent and deliberately unasserted.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		blob, _ := json.Marshal(generateRequest{ID: "walkaway", Prompt: []int{11, 12}, MaxTokens: 8, Stream: true})
		hreq, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/generate", bytes.NewReader(blob))
		resp, err := ts.Client().Do(hreq)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		sc.Scan() // first NDJSON line
		cancel()  // client gone
	}()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// The survivors all finished; the server must drain to an empty arena.
	if err := srv.Drain(); err != nil {
		t.Fatalf("post-soak drain: %v", err)
	}
}

func chaosStallWatchdog(t *testing.T, m *nn.Model) {
	inj, err := fault.ParseSpec("stall=CH-STALL")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, m, 1, ServerConfig{
		MaxQueue:     4,
		StallTimeout: 100 * time.Millisecond,
		Injector:     inj,
	})

	// The stalled decode blocks the whole batch loop, so it runs solo: the
	// watchdog must kill it with a typed 504 and reclaim the slot.
	resp, body := postGenerate(t, ts, generateRequest{ID: "CH-STALL", Prompt: []int{1, 2}, MaxTokens: 6}, nil)
	wantError(t, resp, body, http.StatusGatewayTimeout, "stalled")

	// The slot is live again: a healthy request decodes solo-identically.
	want := soloGenerate(t, m, []int{7, 8}, nn.SampleConfig{MaxTokens: 4})
	resp, body = postGenerate(t, ts, generateRequest{ID: "after-stall", Prompt: []int{7, 8}, MaxTokens: 4}, nil)
	if resp.StatusCode != 200 {
		t.Fatalf("post-stall request: %d %s", resp.StatusCode, body)
	}
	var gr generateResponse
	if err := json.Unmarshal(body, &gr); err != nil {
		t.Fatal(err)
	}
	tokensEqual(t, "post-stall", gr.Tokens, want)

	if err := srv.Drain(); err != nil {
		t.Fatalf("drain after stall: %v", err)
	}
}

func chaosOverloadShed(t *testing.T, m *nn.Model) {
	inj, err := fault.ParseSpec("stall=HOLD")
	if err != nil {
		t.Fatal(err)
	}
	srv, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 2, Injector: inj})

	// Fill the building: one stalled stream in the slot, two in the queue.
	releaseHold, holdDone := holdGenerate(t, ts, generateRequest{ID: "HOLD", Prompt: []int{1, 2}, MaxTokens: 6})
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 1 })
	var queued []chan int
	for i := 0; i < 2; i++ {
		_, done := holdGenerate(t, ts, generateRequest{ID: fmt.Sprintf("q%d", i), Prompt: []int{3 + i}, MaxTokens: 2})
		queued = append(queued, done)
	}
	waitStatusz(t, ts, func(s map[string]any) bool { return s["active_requests"].(float64) >= 3 })

	// A flood against the full queue: every response is an immediate,
	// well-formed 429 — the queue never grows past its bound.
	for i := 0; i < 5; i++ {
		resp, body := postGenerate(t, ts, generateRequest{ID: fmt.Sprintf("flood%d", i), Prompt: []int{9}, MaxTokens: 2}, nil)
		wantError(t, resp, body, http.StatusTooManyRequests, "overloaded")
	}
	waitStatusz(t, ts, func(s map[string]any) bool { return s["queue_depth"].(float64) <= 2 })

	// Release the stall: the queued requests complete normally.
	releaseHold()
	<-holdDone
	for i, done := range queued {
		if code := <-done; code != http.StatusOK {
			t.Fatalf("queued request %d finished %d, want 200", i, code)
		}
	}
	if err := srv.Drain(); err != nil {
		t.Fatalf("drain after flood: %v", err)
	}
}
