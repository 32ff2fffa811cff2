package serve

import (
	"context"
	"errors"
	"net/http"
	"path/filepath"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// TestPackedArtifactInRegistry422 pins what happens when a packed-weight
// artifact (quant's ELLMPKD1 format) lands in the adapter registry
// directory — an easy operator mistake, since both artifact families live
// in flat per-tenant files. The registry must surface it as a corrupt
// adapter: a typed *CorruptAdapterError from Acquire and a clean 422 from
// the HTTP front end, never a panic or a 500.
func TestPackedArtifactInRegistry422(t *testing.T) {
	m := testModel(404)
	dir := t.TempDir()
	p := quant.Pack(tensor.NewRNG(3).Normal(0, 1, 16, 16), 4)
	if err := quant.WritePackedFile(filepath.Join(dir, "tenant-pkd"), p); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry(dir, 2)
	_, err := reg.Acquire("tenant-pkd")
	var corrupt *CorruptAdapterError
	if !errors.As(err, &corrupt) {
		t.Fatalf("Acquire on a packed artifact returned %v, want *CorruptAdapterError", err)
	}

	_, ts := newTestServer(t, m, 1, ServerConfig{MaxQueue: 4, Registry: NewRegistry(dir, 2)})
	resp, body := postGenerate(t, ts, generateRequest{
		ID: "p1", Adapter: "tenant-pkd", Prompt: []int{1}, MaxTokens: 2,
	}, nil)
	wantError(t, resp, body, http.StatusUnprocessableEntity, "adapter_corrupt")
}

// TestSchedulerPackedDecodeMatchesFakeQuant pins the serving stack on top
// of packed execution: tokens scheduled through a packed decoder — uniform,
// LUC-mixed and NF backbones, on the base model and under an adapter — must
// be identical to a solo float32 decoder over the Unpack()-materialized
// weights under the same adapter.
func TestSchedulerPackedDecodeMatchesFakeQuant(t *testing.T) {
	const seed = 405
	for name, specs := range map[string][]nn.PackSpec{
		"uniform4":  {{Bits: 4}, {Bits: 4}},
		"luc-mixed": {{Bits: 4}, {Bits: 3}},
		"nf":        {{Bits: 4, NF: true, NFBlock: 64}, {Bits: 3, NF: true}},
	} {
		t.Run(name, func(t *testing.T) {
			m := testModel(seed)
			pm, err := nn.PackModel(m, specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: same seed, block weights overwritten with the packed
			// decode targets.
			ref := testModel(seed)
			for l, blk := range ref.Blocks {
				for wi, w := range blk.WeightMatrices() {
					if mat := pm.Mat(l, wi); mat != nil {
						w.CopyFrom(mat.(interface{ Unpack() *tensor.Tensor }).Unpack())
					}
				}
			}

			dec := nn.NewBatchDecoder(m, 2, nil)
			defer dec.Close()
			if err := dec.SetPacked(pm); err != nil {
				t.Fatal(err)
			}
			sched := New(dec)
			reqs := []Request{
				{ID: "base", Prompt: []int{3, 4, 5}, Cfg: nn.SampleConfig{MaxTokens: 6}},
				{ID: "adapted", Prompt: []int{3, 4, 5}, Cfg: nn.SampleConfig{MaxTokens: 6, Temperature: 0.9, TopK: 8, Seed: 3},
					Adapter: makeTestAdapter(t, "tenant", 100, m.Cfg)},
			}
			streams := make([]*Stream, len(reqs))
			for i, req := range reqs {
				if streams[i], err = sched.Submit(req); err != nil {
					t.Fatal(err)
				}
			}
			if err := sched.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			for i, st := range streams {
				if st.Result().Err != nil {
					t.Fatal(st.Result().Err)
				}
				tokensEqual(t, st.ID()+": packed serve vs fake-quant solo", st.Result().Tokens, soloSteps(t, ref, nil, reqs[i]))
			}
		})
	}
}
