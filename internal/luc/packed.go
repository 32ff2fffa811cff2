package luc

import "edgellm/internal/nn"

// PackSpecs maps a LUC policy to per-layer packed-weight specs: each
// layer stores at its candidate's bit width in the uniform packed format.
// Sparsity needs no explicit representation — pruned weights are zero and
// symmetric quantization preserves zeros, so they land on the zero code.
// The packed values are not those of Apply's fake-quantization, though:
// Apply quantizes with group-16 scales, and packing re-quantizes the result
// with one scale per column, which moves most weights (DESIGN.md §6).
// This is the bridge from the paper's analytic bit budget to executable
// packed weights: nn.PackModel(m, luc.PackSpecs(policy, cands), pool)
// makes a governed policy's budget the model's actual resident footprint.
func PackSpecs(p Policy, cands []Candidate) []nn.PackSpec {
	out := make([]nn.PackSpec, len(p.Choice))
	for l, ci := range p.Choice {
		out[l] = nn.PackSpec{Bits: cands[ci].Bits}
	}
	return out
}
