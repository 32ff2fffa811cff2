package nn

import (
	"testing"

	"edgellm/internal/tensor"
)

func TestSampleConfigValidate(t *testing.T) {
	good := SampleConfig{Temperature: 0.8, TopK: 5, MaxTokens: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []SampleConfig{
		{Temperature: -1, MaxTokens: 1},
		{TopK: -1, MaxTokens: 1},
		{MaxTokens: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should be invalid", bad)
		}
	}
}

// genDecoder is a decoder over a seeded model with room for the generations
// below (tinyModel's MaxSeq is 8, and a KV cache does not slide).
func genDecoder(t *testing.T, seed int64) *Decoder {
	cfg := tinyConfig()
	cfg.MaxSeq = 24
	d := NewDecoder(NewModel(cfg, tensor.NewRNG(seed)))
	t.Cleanup(d.Close)
	return d
}

func TestGenerateLengthAndRange(t *testing.T) {
	d := genDecoder(t, 50)
	out, err := d.Generate([]int{1, 2, 3}, SampleConfig{Temperature: 1, MaxTokens: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 13 {
		t.Fatalf("generated %d tokens, want 13", len(out))
	}
	for i, tok := range out {
		if tok < 0 || tok >= d.Config().Vocab {
			t.Fatalf("token %d at %d out of range", tok, i)
		}
	}
	// The prompt must be preserved as a prefix.
	for i, want := range []int{1, 2, 3} {
		if out[i] != want {
			t.Fatal("prompt not preserved")
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	d := genDecoder(t, 51)
	cfg := SampleConfig{Temperature: 0, MaxTokens: 8, Seed: 1}
	a, _ := d.Generate([]int{5}, cfg)
	cfg.Seed = 999 // greedy must ignore the seed
	b, _ := d.Generate([]int{5}, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decoding must be deterministic")
		}
	}
}

func TestGenerateSampledSeedsDiffer(t *testing.T) {
	d := genDecoder(t, 52)
	a, _ := d.Generate([]int{5}, SampleConfig{Temperature: 1.5, MaxTokens: 12, Seed: 1})
	b, _ := d.Generate([]int{5}, SampleConfig{Temperature: 1.5, MaxTokens: 12, Seed: 2})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should (overwhelmingly) give different samples")
	}
	c, _ := d.Generate([]int{5}, SampleConfig{Temperature: 1.5, MaxTokens: 12, Seed: 1})
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed must reproduce the sample")
		}
	}
}

func TestGenerateTopKRestricts(t *testing.T) {
	// With TopK=1, sampling degenerates to greedy regardless of temperature.
	d := genDecoder(t, 53)
	greedy, _ := d.Generate([]int{7}, SampleConfig{Temperature: 0, MaxTokens: 6, Seed: 1})
	topk1, _ := d.Generate([]int{7}, SampleConfig{Temperature: 2, TopK: 1, MaxTokens: 6, Seed: 42})
	for i := range greedy {
		if greedy[i] != topk1[i] {
			t.Fatal("top-1 sampling must equal greedy")
		}
	}
}

func TestGenerateEmptyPromptErrors(t *testing.T) {
	d := genDecoder(t, 55)
	if _, err := d.Generate(nil, SampleConfig{Temperature: 0, MaxTokens: 1}); err == nil {
		t.Fatal("empty prompt must error")
	}
}

// TestSampleLogitsTemperatureZeroIsArgmax: temperature 0 picks the first
// largest logit and never draws from the RNG, whatever TopK says.
func TestSampleLogitsTemperatureZeroIsArgmax(t *testing.T) {
	logits := []float32{-1, 3, 0.5, 3, -7}
	g, untouched := tensor.NewSavableRNG(9), tensor.NewSavableRNG(9)
	for _, topK := range []int{0, 1, 3} {
		if got := SampleLogits(logits, SampleConfig{Temperature: 0, TopK: topK}, g); got != 1 {
			t.Fatalf("TopK %d: temperature 0 chose %d, want the first argmax 1", topK, got)
		}
	}
	a, _ := g.State()
	b, _ := untouched.State()
	if a != b {
		t.Fatal("greedy sampling consumed randomness")
	}
}

func TestSampleTokenDistribution(t *testing.T) {
	// A strongly peaked logit row must dominate the samples.
	logits := []float32{0, 0, 10, 0}
	g := tensor.NewRNG(1)
	hits := 0
	for i := 0; i < 200; i++ {
		if sampleToken(logits, SampleConfig{Temperature: 1}, g) == 2 {
			hits++
		}
	}
	if hits < 190 {
		t.Fatalf("peaked distribution sampled only %d/200 times", hits)
	}
}
