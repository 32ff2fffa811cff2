package main

import (
	"fmt"
	"strconv"
	"strings"

	"edgellm/internal/luc"
	"edgellm/internal/nn"
)

// resolvePackSpecs turns a -bits flag value into per-layer pack specs:
//
//	"2".."8"        uniform width for every layer
//	"luc@<avg>"     LUC sensitivity probe + DP search under an average-bit
//	                budget, then prune + fake-quantize per the policy so
//	                the packed codes carry the pruned zeros
//
// The returned description names the layer assignment for reports.
func resolvePackSpecs(m *nn.Model, spec string) ([]nn.PackSpec, string, error) {
	switch {
	case strings.HasPrefix(spec, "luc@"):
		budget, err := strconv.ParseFloat(strings.TrimPrefix(spec, "luc@"), 64)
		if err != nil || budget <= 0 {
			return nil, "", fmt.Errorf("bad LUC budget %q: want luc@<avg-bits>, e.g. luc@3.5", spec)
		}
		cands := luc.DefaultCandidates()
		sens := luc.Probe(m, cands, luc.ProbeOptions{Metric: luc.MetricWeightError})
		policy := luc.SearchDP(sens, cands, budget)
		// Apply prunes and fake-quantizes in place (group-16 scales); packing
		// then re-quantizes each layer per column at the policy's width. The
		// pruned zeros survive, but the packed codes are not LUC's quantized
		// weights: most of them decode to a different value.
		info := luc.Apply(m, policy, cands)
		desc := fmt.Sprintf("luc@%.2f achieved %.2f eff. bits: %s",
			budget, info.AvgEffectiveBits, policy.Describe(cands))
		return luc.PackSpecs(policy, cands), desc, nil
	default:
		bits, err := strconv.Atoi(spec)
		if err != nil || bits < 2 || bits > 8 {
			return nil, "", fmt.Errorf("bad -bits %q: want 2..8 or luc@<avg-bits>", spec)
		}
		out := make([]nn.PackSpec, len(m.Blocks))
		for i := range out {
			out[i] = nn.PackSpec{Bits: bits}
		}
		return out, fmt.Sprintf("uniform %db", bits), nil
	}
}
