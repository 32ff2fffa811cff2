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
	if !(c.Temperature >= 0) { // NaN too
		return fmt.Errorf("nn: temperature %v is not ≥ 0", c.Temperature)
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

// cand is one logit of a row: its token and its temperature-scaled value.
type cand struct {
	idx int
	v   float64
}

// stackTopK is the largest top-k whose K+1 candidates sampleToken keeps on
// the stack; a larger K takes one allocation.
const stackTopK = 64

// sampleToken draws one token from a logit row under the sampling config:
// on every row it returns sampleTokenRef's token and leaves g where
// sampleTokenRef leaves it (FuzzSampleLogits), in one pass over the row and,
// for K ≤ stackTopK, without allocating.
//
// Top-k keeps the K+1 largest logits in a descending buffer. When their
// scaled values strictly decrease, each step of the reference's selection
// sort had a unique maximum, so the reference ordered the K winners exactly
// as the buffer does and the same weights, sum, draw and walk follow. A tie
// at or above the K-th scaled value (distinct logits can scale to one value
// at an extreme temperature) or a NaN anywhere in the row makes the order
// the selection sort's swaps produce, and those rows go to sampleTokenRef.
func sampleToken(logits []float32, cfg SampleConfig, g *tensor.RNG) int {
	T, K := cfg.Temperature, cfg.TopK
	switch {
	case T == 0: // argmax: the reference neither allocates nor draws
		return sampleTokenRef(logits, cfg, g)
	case K <= 0 || K >= len(logits):
		return sampleAll(logits, T, g)
	}
	var stack [stackTopK + 1]cand
	top := stack[:0]
	if K > stackTopK {
		top = make([]cand, 0, K+1)
	}
	// The first K+1 logits, insertion-sorted; then every later one that
	// beats the smallest kept displaces it.
	for i, l := range logits[:K+1] {
		if l != l {
			return sampleTokenRef(logits, cfg, g)
		}
		top = top[:i+1]
		insertDesc(top, i, l)
	}
	floor := float32(top[K].v)
	for i, l := range logits[K+1:] {
		if l <= floor {
			continue
		}
		if l != l {
			return sampleTokenRef(logits, cfg, g)
		}
		insertDesc(top, K+1+i, l)
		floor = float32(top[K].v)
	}
	for i := range top {
		top[i].v /= T
	}
	for i := 0; i < K; i++ {
		if !(top[i].v > top[i+1].v) {
			return sampleTokenRef(logits, cfg, g)
		}
	}
	top = top[:K]
	maxV := top[0].v
	var sum float64
	for i := range top {
		w := math.Exp(top[i].v - maxV)
		top[i].v = w
		sum += w
	}
	r := g.Float64() * sum
	for _, c := range top {
		r -= c.v
		if r <= 0 {
			return c.idx
		}
	}
	return top[K-1].idx
}

// insertDesc places logit l of token idx into the descending buffer top,
// dropping its last entry; equal logits keep arrival order.
func insertDesc(top []cand, idx int, l float32) {
	v := float64(l)
	j := len(top) - 1
	for ; j > 0 && top[j-1].v < v; j-- {
		top[j] = top[j-1]
	}
	top[j] = cand{idx: idx, v: v}
}

// sampleAll samples from the whole row in index order — sampleTokenRef
// without top-k — recomputing each weight on the walk rather than storing
// a vocabulary-long slice of them.
func sampleAll(logits []float32, T float64, g *tensor.RNG) int {
	maxV := float64(logits[0]) / T
	for _, l := range logits[1:] {
		if v := float64(l) / T; v > maxV {
			maxV = v
		}
	}
	var sum float64
	for _, l := range logits {
		sum += math.Exp(float64(l)/T - maxV)
	}
	r := g.Float64() * sum
	for i, l := range logits {
		r -= math.Exp(float64(l)/T - maxV)
		if r <= 0 {
			return i
		}
	}
	return len(logits) - 1
}

// sampleTokenRef is the sampler's reference: a K-pass selection sort for
// top-k and a stored weight per candidate. sampleToken sends it the rows
// whose order only the selection sort defines; the tests hold sampleToken to
// it everywhere else.
func sampleTokenRef(logits []float32, cfg SampleConfig, g *tensor.RNG) int {
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
