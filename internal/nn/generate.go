package nn

import (
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// SampleConfig controls autoregressive decoding.
type SampleConfig struct {
	// Temperature scales logits before sampling; 0 selects greedy argmax.
	Temperature float64
	// TopK, when > 0, restricts sampling to the K most likely tokens.
	TopK int
	// MaxTokens is the number of tokens to generate.
	MaxTokens int
	// Seed drives the sampler.
	Seed int64
}

// Validate reports the first invalid field.
func (c SampleConfig) Validate() error {
	if c.Temperature < 0 {
		return fmt.Errorf("nn: negative temperature %v", c.Temperature)
	}
	if c.TopK < 0 {
		return fmt.Errorf("nn: negative TopK %d", c.TopK)
	}
	if c.MaxTokens < 1 {
		return fmt.Errorf("nn: MaxTokens must be ≥ 1, got %d", c.MaxTokens)
	}
	return nil
}

// SampleLogits draws one token from a logit row under the sampling config
// using the caller's RNG. It is the sampling step Decoder.Generate applies
// per token, exported so the serve scheduler's per-stream samplers reproduce
// solo-generation token sequences exactly.
func SampleLogits(logits []float32, cfg SampleConfig, g *tensor.RNG) int {
	return sampleToken(logits, cfg, g)
}

// sampleToken draws one token from a logit row under the sampling config.
func sampleToken(logits []float32, cfg SampleConfig, g *tensor.RNG) int {
	if cfg.Temperature == 0 {
		best, bestV := 0, logits[0]
		for i, v := range logits[1:] {
			if v > bestV {
				best, bestV = i+1, v
			}
		}
		return best
	}
	// Temperature-scaled softmax over the (optionally top-K-filtered) row.
	type cand struct {
		idx int
		v   float64
	}
	cands := make([]cand, len(logits))
	for i, v := range logits {
		cands[i] = cand{idx: i, v: float64(v) / cfg.Temperature}
	}
	if cfg.TopK > 0 && cfg.TopK < len(cands) {
		// Partial selection of the K largest.
		for i := 0; i < cfg.TopK; i++ {
			best := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].v > cands[best].v {
					best = j
				}
			}
			cands[i], cands[best] = cands[best], cands[i]
		}
		cands = cands[:cfg.TopK]
	}
	maxV := cands[0].v
	for _, c := range cands[1:] {
		if c.v > maxV {
			maxV = c.v
		}
	}
	var sum float64
	weights := make([]float64, len(cands))
	for i, c := range cands {
		w := math.Exp(c.v - maxV)
		weights[i] = w
		sum += w
	}
	r := g.Float64() * sum
	for i, w := range weights {
		r -= w
		if r <= 0 {
			return cands[i].idx
		}
	}
	return cands[len(cands)-1].idx
}
