package luc

import (
	"edgellm/internal/nn"
	"edgellm/internal/prune"
	"edgellm/internal/tensor"
)

// RefinePolicy improves a policy by coordinate descent on the *joint*
// output KL of the fully compressed model, fixing the main blind spot of
// probe-based search: the probe scores each layer compressed in isolation,
// so compounding effects across layers (especially from pruning) are
// invisible to it. Refinement repeatedly tries moving one layer to a
// neighbouring candidate (any candidate whose substitution keeps the
// budget) and keeps the move that most reduces the measured joint KL,
// until a full sweep finds no improvement or `rounds` sweeps elapse.
//
// The model is left untouched: every evaluation applies a trial policy to
// the live weights and restores them afterwards.
func RefinePolicy(m *nn.Model, p Policy, cands []Candidate, budgetBits float64, calib [][]int, rounds int) Policy {
	if len(calib) == 0 {
		panic("luc: RefinePolicy requires calibration data")
	}
	layers := len(m.Blocks)
	// Snapshot and rank all block weights once: every trial policy starts
	// from the snapshot, so its masks are prefixes of these rankings.
	saved := make([][]*tensor.Tensor, layers)
	ranks := make([][]prune.Ranking, layers)
	for li, b := range m.Blocks {
		saved[li], ranks[li] = snapshot(b.WeightMatrices())
	}
	restore := func() {
		for li, b := range m.Blocks {
			for wi, w := range b.WeightMatrices() {
				w.CopyFrom(saved[li][wi])
			}
		}
	}
	f := nn.NewForward(m)
	rows := len(calib) * len(calib[0])
	baseProbs, probs := tensor.New(rows, m.Cfg.Vocab), tensor.New(rows, m.Cfg.Vocab)
	softmaxInto(baseProbs, f.Logits(calib))
	jointKL := func(policy Policy) float64 {
		applyRanked(m, policy, cands, ranks)
		softmaxInto(probs, f.Logits(calib))
		restore()
		return meanKL(baseProbs, probs)
	}

	best := Policy{Choice: append([]int(nil), p.Choice...)}
	bestKL := jointKL(best)
	for round := 0; round < rounds; round++ {
		improved := false
		for layer := 0; layer < layers; layer++ {
			orig := best.Choice[layer]
			for ci := range cands {
				if ci == orig {
					continue
				}
				trial := Policy{Choice: append([]int(nil), best.Choice...)}
				trial.Choice[layer] = ci
				if trial.AvgEffectiveBits(cands) > budgetBits+1e-9 {
					continue
				}
				kl := jointKL(trial)
				if kl < bestKL-1e-12 {
					best, bestKL = trial, kl
					improved = true
				}
			}
		}
		if !improved {
			break
		}
	}
	return best
}
