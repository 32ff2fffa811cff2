// Package luc implements Edge-LLM's Layerwise Unified Compression: a cheap
// per-layer sensitivity probe over joint (pruning-ratio, quantization-bits)
// candidates, a budgeted policy search (greedy and dynamic-programming
// variants) that assigns each transformer block its own candidate, and the
// pass that applies the chosen policy to a model.
//
// The pipeline is:
//
//	cands  := luc.DefaultCandidates()
//	sens   := luc.Probe(model, cands, probeOpts)       // cost[layer][cand]
//	policy := luc.SearchDP(sens, cands, budgetBits)    // or SearchGreedy
//	info   := luc.Apply(model, policy, cands)          // compress in place
package luc

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/prune"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// Candidate is one joint compression setting for a layer.
type Candidate struct {
	// Bits is the quantization width applied to surviving weights.
	Bits int
	// Sparsity is the magnitude-pruned fraction of each weight matrix.
	Sparsity float64
}

// EffectiveBits is the average stored bits per original weight element:
// pruned elements cost nothing, survivors cost Bits.
func (c Candidate) EffectiveBits() float64 {
	return float64(c.Bits) * (1 - c.Sparsity)
}

// String renders the candidate, e.g. "4b@50%".
func (c Candidate) String() string {
	return fmt.Sprintf("%db@%.0f%%", c.Bits, c.Sparsity*100)
}

// DefaultCandidates returns the search grid used by the experiments:
// {8,4,3,2} bits × {0, 25, 50, 75}% sparsity, sorted by descending
// effective bits.
func DefaultCandidates() []Candidate {
	var cs []Candidate
	for _, bits := range []int{8, 4, 3, 2} {
		for _, sp := range []float64{0, 0.25, 0.5, 0.75} {
			cs = append(cs, Candidate{Bits: bits, Sparsity: sp})
		}
	}
	sort.SliceStable(cs, func(i, j int) bool { return cs[i].EffectiveBits() > cs[j].EffectiveBits() })
	return cs
}

// MinEffectiveBits returns the lowest effective bits any candidate in the
// grid can reach — the floor below which no bit-budget target is
// achievable. The resource governor uses it to bound its tighten-bits
// degradation rung.
func MinEffectiveBits(cands []Candidate) float64 {
	if len(cands) == 0 {
		return 0
	}
	min := cands[0].EffectiveBits()
	for _, c := range cands[1:] {
		if eb := c.EffectiveBits(); eb < min {
			min = eb
		}
	}
	return min
}

// Policy assigns one candidate index (into the candidate grid) per layer.
type Policy struct {
	// Choice[i] indexes the candidate assigned to block i.
	Choice []int
}

// AvgEffectiveBits returns the policy's mean effective bits per element
// (blocks are homogeneous in size, so the unweighted mean is exact).
func (p Policy) AvgEffectiveBits(cands []Candidate) float64 {
	var sum float64
	for _, ci := range p.Choice {
		sum += cands[ci].EffectiveBits()
	}
	return sum / float64(len(p.Choice))
}

// TotalCost sums the sensitivity cost of the policy.
func (p Policy) TotalCost(sens Sensitivity) float64 {
	var sum float64
	for layer, ci := range p.Choice {
		sum += sens[layer][ci]
	}
	return sum
}

// Describe renders the policy as one candidate per layer.
func (p Policy) Describe(cands []Candidate) string {
	out := ""
	for i, ci := range p.Choice {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("L%d:%s", i, cands[ci])
	}
	return out
}

// Uniform returns the policy assigning the same candidate to every layer.
func Uniform(layers, candidate int) Policy {
	p := Policy{Choice: make([]int, layers)}
	for i := range p.Choice {
		p.Choice[i] = candidate
	}
	return p
}

// UniformAtBudget picks the single candidate with the highest effective
// bits not exceeding the budget and assigns it to every layer — the
// uniform-compression baseline of ablation T2. Effective-bits ties are
// broken toward lower sparsity, so a 4.0-bit budget yields the classic
// "uniform 4-bit quantization" baseline rather than 8-bit + 50% pruning.
func UniformAtBudget(layers int, cands []Candidate, budgetBits float64) Policy {
	best := -1
	for i, c := range cands {
		if c.EffectiveBits() > budgetBits+1e-9 {
			continue
		}
		if best == -1 ||
			c.EffectiveBits() > cands[best].EffectiveBits()+1e-9 ||
			(math.Abs(c.EffectiveBits()-cands[best].EffectiveBits()) < 1e-9 && c.Sparsity < cands[best].Sparsity) {
			best = i
		}
	}
	if best == -1 {
		panic(fmt.Sprintf("luc: no candidate fits budget %.2f bits", budgetBits))
	}
	return Uniform(layers, best)
}

// Sensitivity is the probed cost matrix: Sensitivity[layer][candidate]
// estimates the model-quality damage of compressing that layer with that
// candidate while leaving all other layers untouched.
type Sensitivity [][]float64

// schemeFor builds the quantizer used for a candidate: symmetric grouped
// per-channel quantization (zero-preserving, so pruning masks survive;
// group size 16 keeps sub-4-bit widths usable even for narrow layers).
func schemeFor(c Candidate) quant.Scheme {
	return quant.Scheme{Bits: c.Bits, Symmetric: true, PerChannel: true, GroupSize: 16}
}

// compressTensor applies a candidate to one weight matrix in place: its
// ranking's drop prefix is zeroed, then the matrix is fake-quantized. r, when
// non-nil, is t's ranking (prune.Rank) taken from t's current values; nil
// ranks t here.
func compressTensor(t *tensor.Tensor, c Candidate, r *prune.Ranking) {
	if c.Sparsity > 0 {
		if r == nil {
			rank := prune.Rank(t)
			r = &rank
		}
		r.Prune(t, c.Sparsity)
	}
	schemeFor(c).FakeQuantInPlace(t)
}

// Metric selects the sensitivity measure used by the probe.
type Metric int

const (
	// MetricWeightError scores a candidate by the mean relative weight
	// reconstruction error of the block — no forward passes needed.
	MetricWeightError Metric = iota
	// MetricOutputKL scores a candidate by the KL divergence between the
	// full-precision model's output distribution and the model with just
	// that one layer compressed, averaged over a calibration batch. More
	// faithful; costs one forward pass from the probed layer up per
	// (layer, candidate), plus one full forward per probe.
	MetricOutputKL
)

// ProbeOptions configures Probe.
type ProbeOptions struct {
	Metric Metric
	// Calib supplies the calibration batch for MetricOutputKL.
	Calib [][]int
	// Trace, when set, parents the per-layer probe spans so the probe
	// nests under the owning pipeline stage in the trace viewer. Zero
	// value is fine (inert when observability is disabled).
	Trace obsv.Span
}

// Probe measures the sensitivity matrix of m's blocks over cands. Each
// candidate compresses one block's live weights, is scored, and the block
// is restored bit for bit from a snapshot taken once per layer.
//
// Work that no candidate changes is done once, so a probe costs little more
// than its forwards. Each weight is ranked (prune.Rank, one radix sort) once
// per layer, from the snapshot; a candidate's pruning zeroes that ranking's
// drop prefix in the weight directly, with no mask, and its fake-quant is one
// row-major pass per group of rows (quant's AVX2 kernel where the CPU has
// it). The output-KL metric runs the full forward once and keeps each
// block's input: block L's input does not depend on block L's weights, so a
// candidate at layer L runs only blocks L… and the final head from it. Every
// forward is the no-grad nn.Forward, built once per probe, and every cell
// equals a full forward of the compressed model, bit for bit.
//
// With observability enabled, each layer's probe is a luc.probe_layer
// span (labeled layer=<i>), every (layer, candidate) evaluation counts
// toward luc.probe_evals, and the layer's mean cost over candidates is
// published as the layer-labeled gauge luc.layer_sensitivity.
func Probe(m *nn.Model, cands []Candidate, opt ProbeOptions) Sensitivity {
	obs := obsv.Global()
	sens := make(Sensitivity, len(m.Blocks))
	L := len(m.Blocks)
	var f *nn.Forward
	var baseProbs, probs *tensor.Tensor
	var batch, seq int
	inputs := make([]*tensor.Tensor, L) // block i's input on the calibration batch
	if opt.Metric == MetricOutputKL {
		if len(opt.Calib) == 0 {
			panic("luc: MetricOutputKL requires calibration data")
		}
		batch, seq = len(opt.Calib), len(opt.Calib[0])
		f = nn.NewForward(m)
		f.Embed(opt.Calib)
		for layer := range m.Blocks {
			inputs[layer] = f.RunTo(layer).Clone()
		}
		f.RunTo(L)
		baseProbs, probs = tensor.New(batch*seq, m.Cfg.Vocab), tensor.New(batch*seq, m.Cfg.Vocab)
		softmaxInto(baseProbs, f.Head(L))
	}
	for layer, block := range m.Blocks {
		var layerSpan obsv.Span
		if obs != nil {
			layerSpan = opt.Trace.Child("luc.probe_layer", obsv.L("layer", strconv.Itoa(layer)))
		}
		sens[layer] = make([]float64, len(cands))
		weights := block.WeightMatrices()
		saved, ranks := snapshot(weights)
		for ci, c := range cands {
			for i, w := range weights {
				w.CopyFrom(saved[i])
				compressTensor(w, c, &ranks[i])
			}
			switch opt.Metric {
			case MetricWeightError:
				var sum float64
				for i, w := range weights {
					sum += relativeMSE(w, saved[i])
				}
				sens[layer][ci] = sum / float64(len(weights))
			case MetricOutputKL:
				f.Load(inputs[layer], layer, batch, seq)
				f.RunTo(L)
				softmaxInto(probs, f.Head(L))
				sens[layer][ci] = meanKL(baseProbs, probs)
			}
		}
		for i, w := range weights {
			w.CopyFrom(saved[i])
		}
		if obs != nil {
			obs.Add("luc.probe_evals", int64(len(cands)))
			var sum float64
			for _, v := range sens[layer] {
				sum += v
			}
			obs.SetGauge("luc.layer_sensitivity", sum/float64(len(cands)),
				obsv.L("layer", strconv.Itoa(layer)))
			layerSpan.End()
		}
	}
	return sens
}

// snapshot copies weights and ranks each copy, so a candidate can start
// from the original values and prune by ranking without a sort.
func snapshot(weights []*tensor.Tensor) ([]*tensor.Tensor, []prune.Ranking) {
	saved := make([]*tensor.Tensor, len(weights))
	ranks := make([]prune.Ranking, len(weights))
	for i, w := range weights {
		saved[i] = w.Clone()
		ranks[i] = prune.Rank(saved[i])
	}
	return saved, ranks
}

// relativeMSE is MSE(a,b) normalised by b's mean square.
func relativeMSE(a, b *tensor.Tensor) float64 {
	var ms float64
	for _, v := range b.Data {
		ms += float64(v) * float64(v)
	}
	ms /= float64(b.Len())
	if ms == 0 {
		return 0
	}
	return tensor.MSE(a, b) / ms
}

// softmaxInto writes logits' row-wise probabilities into out (same shape).
func softmaxInto(out, logits *tensor.Tensor) {
	for i := 0; i < logits.Rows(); i++ {
		tensor.SoftmaxRow(out.Row(i), logits.Row(i), 1)
	}
}

// meanKL returns the mean row-wise KL(p‖q), with q floored for stability.
func meanKL(p, q *tensor.Tensor) float64 {
	r, c := p.Rows(), p.Cols()
	var total float64
	for i := 0; i < r; i++ {
		pr, qr := p.Row(i), q.Row(i)
		for j := 0; j < c; j++ {
			pj := float64(pr[j])
			if pj <= 0 {
				continue
			}
			qj := math.Max(float64(qr[j]), 1e-9)
			total += pj * math.Log(pj/qj)
		}
	}
	return total / float64(r)
}
