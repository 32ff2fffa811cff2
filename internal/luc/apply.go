package luc

import (
	"fmt"
	"strconv"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/prune"
)

// LayerInfo records what was applied to one block.
type LayerInfo struct {
	Candidate Candidate
}

// CompressionInfo is the result of Apply: per-layer settings plus aggregate
// storage accounting.
type CompressionInfo struct {
	Layers []LayerInfo
	// AvgEffectiveBits is the achieved mean stored bits per block-weight
	// element.
	AvgEffectiveBits float64
}

// BlockBits returns, per layer, the quantization width (for the memory
// accountant's BlockWeightBits).
func (ci CompressionInfo) BlockBits() []float64 {
	out := make([]float64, len(ci.Layers))
	for i, l := range ci.Layers {
		out[i] = float64(l.Candidate.Bits)
	}
	return out
}

// BlockSparsity returns, per layer, the pruned fraction.
func (ci CompressionInfo) BlockSparsity() []float64 {
	out := make([]float64, len(ci.Layers))
	for i, l := range ci.Layers {
		out[i] = l.Candidate.Sparsity
	}
	return out
}

// Apply compresses the model's blocks in place according to the policy:
// each block's seven weight matrices are magnitude-pruned at the
// candidate's sparsity and then fake-quantized at its bit-width
// (prune-then-quantize; symmetric quantization preserves the zeros).
// Embeddings, norms, and heads are left untouched.
//
// With observability enabled, the chosen per-layer bit-width and sparsity
// are published as layer-labeled gauges (luc.layer_bits, luc.layer_sparsity)
// together with the achieved luc.avg_effective_bits, so the policy that
// LUC actually applied is visible in /metrics and the trace viewer.
func Apply(m *nn.Model, p Policy, cands []Candidate) CompressionInfo {
	return applyRanked(m, p, cands, nil)
}

// applyRanked is Apply with ranks[layer][i] the ranking (prune.Rank) of
// block layer's weight i at its current values; nil ranks each weight here.
func applyRanked(m *nn.Model, p Policy, cands []Candidate, ranks [][]prune.Ranking) CompressionInfo {
	if len(p.Choice) != len(m.Blocks) {
		panic(fmt.Sprintf("luc: policy covers %d layers, model has %d", len(p.Choice), len(m.Blocks)))
	}
	obs := obsv.Global()
	info := CompressionInfo{AvgEffectiveBits: p.AvgEffectiveBits(cands)}
	for i, block := range m.Blocks {
		c := cands[p.Choice[i]]
		for wi, w := range block.WeightMatrices() {
			var r *prune.Ranking
			if ranks != nil {
				r = &ranks[i][wi]
			}
			compressTensor(w, c, r)
		}
		info.Layers = append(info.Layers, LayerInfo{Candidate: c})
		if obs != nil {
			layer := obsv.L("layer", strconv.Itoa(i))
			obs.SetGauge("luc.layer_bits", float64(c.Bits), layer)
			obs.SetGauge("luc.layer_sparsity", c.Sparsity, layer)
		}
	}
	obs.SetGauge("luc.avg_effective_bits", info.AvgEffectiveBits)
	return info
}
