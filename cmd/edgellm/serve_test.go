package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
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

// TestServeBitsWithAdapters is `serve -bits SPEC -adapters DIR` below the
// flag parsing: a backbone packed the way -bits packs it, behind a server
// with an adapter registry, serves an adapter request whose tokens equal a
// solo Decoder.Generate over the same packed weights under the same adapter,
// and drains to an empty arena.
func TestServeBitsWithAdapters(t *testing.T) {
	for _, bits := range []string{"4", "luc@3.5"} {
		t.Run(bits, func(t *testing.T) {
			cfg := nn.Config{Vocab: 64, Dim: 32, Heads: 4, Layers: 3, Hidden: 64, MaxSeq: 32}
			m := nn.NewModel(cfg, tensor.NewRNG(42))
			specs, _, err := resolvePackSpecs(m, bits)
			if err != nil {
				t.Fatal(err)
			}
			pm, err := nn.PackModel(m, specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			g := tensor.NewRNG(7)
			tuned, err := nn.NewAdapter("tuned", 8, []nn.AdapterPair{
				{Target: "block0.wq", A: g.Normal(0, 0.2, cfg.Dim, 4), B: g.Normal(0, 0.2, 4, cfg.Dim)},
				{Target: "block2.down", A: g.Normal(0, 0.2, cfg.Hidden, 4), B: g.Normal(0, 0.2, 4, cfg.Dim)},
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
				MaxQueue: 2, DrainTimeout: 2 * time.Second, Registry: serve.NewRegistry(dir, 2),
			})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			solo := nn.NewDecoder(m)
			defer solo.Close()
			if err := solo.SetPacked(pm); err != nil {
				t.Fatal(err)
			}
			prompt := []int{5, 6, 7}
			sample := nn.SampleConfig{MaxTokens: 8, Temperature: 0.8, TopK: 12, Seed: 9}
			var served [2][]int
			for i, a := range []*nn.Adapter{nil, tuned} {
				if err := solo.SetAdapter(a); err != nil {
					t.Fatal(err)
				}
				want, err := solo.Generate(prompt, sample)
				if err != nil {
					t.Fatal(err)
				}
				req := map[string]any{"prompt": prompt, "max_tokens": sample.MaxTokens,
					"temperature": sample.Temperature, "top_k": sample.TopK, "seed": sample.Seed}
				if a != nil {
					req["adapter"] = a.Name()
				}
				blob, _ := json.Marshal(req)
				resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(blob))
				if err != nil {
					t.Fatal(err)
				}
				var got struct {
					Tokens []int `json:"tokens"`
				}
				err = json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Fatalf("adapter %v: status %d, decode error %v", a != nil, resp.StatusCode, err)
				}
				if !slices.Equal(got.Tokens, want) {
					t.Fatalf("adapter %v: served %v, solo packed decode %v", a != nil, got.Tokens, want)
				}
				served[i] = got.Tokens
			}
			if slices.Equal(served[0], served[1]) {
				t.Fatal("the adapter request decoded the base model's tokens")
			}
			if err := srv.Drain(); err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}
