package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"edgellm/internal/nn"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

// TestResolvePackSpecsRejectsBadBits: a -bits value outside 2..8 and
// luc@<avg-bits>, "nf4" included, is the one bad -bits error that names
// both accepted forms.
func TestResolvePackSpecsRejectsBadBits(t *testing.T) {
	m := nn.NewModel(nn.Config{Vocab: 16, Dim: 8, Heads: 2, Layers: 1, Hidden: 16, MaxSeq: 4}, tensor.NewRNG(1))
	for _, spec := range []string{"nf4", "1", "9", "4b"} {
		_, _, err := resolvePackSpecs(m, spec)
		if err == nil || !strings.Contains(err.Error(), "bad -bits") || !strings.Contains(err.Error(), "want 2..8 or luc@<avg-bits>") {
			t.Fatalf("-bits %q: error %v, want the bad -bits error", spec, err)
		}
	}
}

// TestServeRejectsBadMemBudget: serve's KV budget is bytes only. A value it
// cannot hold, which would wrap negative and read as "no budget", and the
// experiments' "half-vanilla" keyword both fail with the bad -mem-budget
// error before a model is built. (The address cannot be listened on, so a
// budget wrongly accepted fails the listen instead of serving.)
func TestServeRejectsBadMemBudget(t *testing.T) {
	for _, v := range []string{"1e19", "1e30GiB", "half-vanilla"} {
		err := cmdServe([]string{"-addr", "no-port", "-mem-budget", v})
		if err == nil || !strings.Contains(err.Error(), "bad -mem-budget") {
			t.Errorf("serve -mem-budget %s: error %v, want the bad -mem-budget error", v, err)
		}
	}
}

// TestServeRejectsNonPositiveSlots: a -slots or -max-adapters below 1, and a
// negative -queue, -tenant-slots, -deadline, -stall-timeout or
// -drain-timeout, is a flag error that names the flag, returned before a
// model or telemetry is built — not a panic in the batch decoder, nor a
// value silently clamped or read as "off". (The address cannot be listened
// on, so a wrongly accepted value cannot leave the test serving.)
func TestServeRejectsNonPositiveSlots(t *testing.T) {
	for _, tc := range []struct{ flag, v string }{
		{"-slots", "0"}, {"-slots", "-2"},
		{"-max-adapters", "0"}, {"-max-adapters", "-1"},
		{"-queue", "-1"},
		{"-tenant-slots", "-1"},
		{"-deadline", "-1s"},
		{"-stall-timeout", "-1ms"},
		{"-drain-timeout", "-5s"},
	} {
		err := cmdServe([]string{"-addr", "no-port", tc.flag, tc.v})
		if err == nil || !strings.Contains(err.Error(), "serve: "+tc.flag+" ") {
			t.Errorf("serve %s %s: error %v, want a %s flag error", tc.flag, tc.v, err, tc.flag)
		}
	}
}

// TestServeBitsWithAdapters is `serve -bits SPEC -adapters DIR` below the
// flag parsing. A backbone packed the way -bits packs it releases exactly
// PackModel's ReleasedBytes from the weight pool and keeps the resident
// ratio its width promises. Behind a server with an adapter registry it
// serves eight concurrent streams, half under an adapter, each equal to a
// solo Decoder.Generate over the same packed weights under the same
// adapter, and drains to an empty arena.
func TestServeBitsWithAdapters(t *testing.T) {
	for _, tc := range []struct {
		bits   string
		lo, hi float64 // resident packed bytes over float32 bytes
	}{
		{"4", 0.125, 0.16}, // 4/32, plus one float32 scale per column
		{"luc@3.5", 0, 0.2},
	} {
		t.Run(tc.bits, func(t *testing.T) {
			cfg := nn.Config{Vocab: 256, Dim: 64, Heads: 4, Layers: 2, Hidden: 128, MaxSeq: 32}
			m := nn.NewModel(cfg, tensor.NewRNG(42))
			specs, desc, err := resolvePackSpecs(m, tc.bits)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(tc.bits, "luc@") && !strings.Contains(desc, "luc@3.50") {
				t.Fatalf("description %q does not name the budget", desc)
			}
			wpool := tensor.NewPool()
			nn.AdoptWeights(m, wpool)
			before := wpool.Stats().BytesInUse
			pm, err := nn.PackModel(m, specs, wpool)
			if err != nil {
				t.Fatal(err)
			}
			if drop := before - wpool.Stats().BytesInUse; drop != pm.ReleasedBytes() {
				t.Fatalf("weight pool dropped %d bytes, PackModel released %d", drop, pm.ReleasedBytes())
			}
			if r := float64(pm.StorageBytes()) / float64(pm.ReleasedBytes()); r < tc.lo || r > tc.hi {
				t.Fatalf("resident ratio %.4f, want in [%g, %g]", r, tc.lo, tc.hi)
			}
			g := tensor.NewRNG(7)
			tuned, err := nn.NewAdapter("tuned", 8, []nn.AdapterPair{
				{Target: "block0.wq", A: g.Normal(0, 0.2, cfg.Dim, 4), B: g.Normal(0, 0.2, 4, cfg.Dim)},
				{Target: "block1.down", A: g.Normal(0, 0.2, cfg.Hidden, 4), B: g.Normal(0, 0.2, 4, cfg.Dim)},
			})
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := tuned.SaveFile(filepath.Join(dir, "tuned")); err != nil {
				t.Fatal(err)
			}

			dec := nn.NewBatchDecoder(m, 2, tensor.NewPool())
			defer dec.Close()
			if err := dec.SetPacked(pm); err != nil {
				t.Fatal(err)
			}
			srv := serve.NewServer(dec, serve.ServerConfig{
				MaxQueue: 8, DrainTimeout: 2 * time.Second, Registry: serve.NewRegistry(dir, 2),
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			solo := nn.NewDecoder(m)
			defer solo.Close()
			if err := solo.SetPacked(pm); err != nil {
				t.Fatal(err)
			}
			const streams = 8
			prompt := []int{5, 6, 7}
			want := make([][]int, streams)
			served := make([][]int, streams)
			errs := make([]error, streams)
			var wg sync.WaitGroup
			for i := range streams {
				a := []*nn.Adapter{nil, tuned}[i%2]
				sample := nn.SampleConfig{MaxTokens: 8, Temperature: 0.8, TopK: 12, Seed: 9 + int64(i/2)}
				if err := solo.SetAdapter(a); err != nil {
					t.Fatal(err)
				}
				if want[i], err = solo.Generate(prompt, sample); err != nil {
					t.Fatal(err)
				}
				req := map[string]any{"prompt": prompt, "max_tokens": sample.MaxTokens,
					"temperature": sample.Temperature, "top_k": sample.TopK, "seed": sample.Seed}
				if a != nil {
					req["adapter"] = a.Name()
				}
				blob, _ := json.Marshal(req)
				wg.Add(1)
				go func() {
					defer wg.Done()
					served[i], errs[i] = postTokens(ts.URL, blob)
				}()
			}
			wg.Wait()
			for i := range streams {
				if errs[i] != nil {
					t.Fatalf("stream %d: %v", i, errs[i])
				}
				if !slices.Equal(served[i], want[i]) {
					t.Fatalf("stream %d (adapter %v): served %v, solo packed decode %v", i, i%2 == 1, served[i], want[i])
				}
			}
			if slices.Equal(served[0], served[1]) {
				t.Fatal("the adapter request decoded the base model's tokens")
			}
			if err := srv.Drain(); err != nil { // fails unless the arena drained
				t.Fatalf("drain: %v", err)
			}
		})
	}
}

// postTokens posts one /v1/generate body and returns the tokens of a 200.
func postTokens(url string, body []byte) ([]int, error) {
	resp, err := http.Post(url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var got struct {
		Tokens []int `json:"tokens"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d, decode error %v", resp.StatusCode, err)
	}
	return got.Tokens, nil
}

// TestServeLostAccessLogFailsTheRun: serve with an access log that cannot
// be written (-access-log /dev/full) exits non-zero after its SIGTERM
// drain, as for every other telemetry sink: a run that dropped records
// never exits 0.
func TestServeLostAccessLogFailsTheRun(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	// The test holds SIGTERM itself, so the signals sent below never kill
	// the test binary, whether or not serve is listening for them yet.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	done := make(chan error, 1)
	go func() {
		done <- cmdServe([]string{"-addr", addr, "-access-log", "/dev/full", "-drain-timeout", "1s"})
	}()
	url := "http://" + addr
	for start := time.Now(); ; time.Sleep(10 * time.Millisecond) {
		if resp, err := http.Get(url + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited before serving: %v", err)
		default:
		}
		if time.Since(start) > 10*time.Second {
			t.Fatal("serve never came up")
		}
	}
	// One request: its record waits in the log's buffer until the close.
	if _, err := postTokens(url, []byte(`{"prompt":[1,2],"max_tokens":2}`)); err != nil {
		t.Fatal(err)
	}
	self, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		if err := self.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), "access log") {
				t.Fatalf("serve returned %v, want the access log's write error", err)
			}
			return
		case <-time.After(200 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("serve did not exit on SIGTERM")
		}
	}
}
