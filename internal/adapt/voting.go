package adapt

import (
	"fmt"
	"math"
	"strconv"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// VotingMode selects how exit-head predictions are combined at inference.
type VotingMode int

const (
	// VoteUniform averages all participating heads' log-probabilities.
	VoteUniform VotingMode = iota
	// VoteCalibrated weights each head by a softmax over its negative
	// calibration loss — heads that proved accurate on held-out data get
	// more say. This is the "adaptive" combination of the paper.
	VoteCalibrated
	// VoteConfidence weights heads per input row by their own prediction
	// confidence (maximum probability), so easy tokens lean on early
	// exits and hard tokens on deep ones.
	VoteConfidence
)

// String names the mode for reports.
func (v VotingMode) String() string {
	switch v {
	case VoteUniform:
		return "uniform"
	case VoteCalibrated:
		return "calibrated"
	case VoteConfidence:
		return "confidence"
	default:
		return fmt.Sprintf("mode(%d)", int(v))
	}
}

// Voter combines the logits of a set of exit heads (plus, optionally, the
// final head) into one prediction. Its heads run on a no-grad forward
// (nn.Forward) the voter keeps between calls, so a Voter is not safe for
// concurrent use.
type Voter struct {
	// Exits lists participating heads as layer indices; the value
	// len(Blocks) denotes the final head.
	Exits []int
	Mode  VotingMode
	// Weights holds one calibrated weight per entry of Exits (VoteCalibrated).
	Weights []float64

	fwd *nn.Forward // the heads' forward, over the last model voted on
}

// FinalHead is the sentinel exit index denoting the model's final head.
func FinalHead(m *nn.Model) int { return len(m.Blocks) }

// NewVoter builds a voter over the given exits. For VoteCalibrated, call
// Calibrate before use; until then weights are uniform.
func NewVoter(exits []int, mode VotingMode) *Voter {
	w := make([]float64, len(exits))
	for i := range w {
		w[i] = 1 / float64(len(exits))
	}
	return &Voter{Exits: append([]int(nil), exits...), Mode: mode, Weights: w}
}

// headLogits returns the logits of every participating head for one batch:
// one no-grad pass, up to the deepest head, computing only those heads.
func (v *Voter) headLogits(m *nn.Model, batch [][]int) []*tensor.Tensor {
	L := len(m.Blocks)
	for _, e := range v.Exits {
		if e < 0 || e > L {
			panic(fmt.Sprintf("adapt: exit %d out of range [0,%d]", e, L))
		}
	}
	if v.fwd == nil || v.fwd.Model() != m {
		v.fwd = nn.NewForward(m)
	}
	v.fwd.Embed(batch)
	out := make([]*tensor.Tensor, len(v.Exits))
	for d, left := 1, len(out); left > 0; d++ {
		v.fwd.RunTo(d)
		for i, e := range v.Exits {
			if min(e+1, L) == d { // exit e reads block e's output, the final head the last block's
				out[i], left = v.fwd.Head(e).Clone(), left-1
			}
		}
	}
	return out
}

// Calibrate sets VoteCalibrated weights from held-out batches: weight_h ∝
// exp(−CE_h / temperature), normalised. temperature tempers how sharply
// better heads dominate; 0.1–1.0 are reasonable.
func (v *Voter) Calibrate(m *nn.Model, batches [][][]int, targets [][]int, temperature float64) {
	if temperature <= 0 {
		panic("adapt: calibration temperature must be positive")
	}
	sp := obsv.StartSpan("adapt.calibrate")
	defer sp.EndWith(map[string]float64{
		"exits":   float64(len(v.Exits)),
		"batches": float64(len(batches)),
	})
	losses := make([]float64, len(v.Exits))
	counts := 0
	for bi, batch := range batches {
		heads := v.headLogits(m, batch)
		for hi, logits := range heads {
			ce := ag.CrossEntropy(ag.Const(logits), targets[bi], -1)
			losses[hi] += float64(ce.Data.Data[0]) * float64(len(targets[bi]))
		}
		counts += len(targets[bi])
	}
	var sum float64
	for i := range losses {
		losses[i] /= float64(counts)
		v.Weights[i] = math.Exp(-losses[i] / temperature)
		sum += v.Weights[i]
	}
	for i := range v.Weights {
		v.Weights[i] /= sum
	}
	if obs := obsv.Global(); obs != nil {
		obs.SetGauge("adapt.calib_temperature", temperature)
		for i, e := range v.Exits {
			head := obsv.L("head", strconv.Itoa(e))
			obs.SetGauge("adapt.head_weight", v.Weights[i], head)
			obs.SetGauge("adapt.head_calib_loss", losses[i], head)
		}
	}
}

// Logits returns the voter's combined prediction for a batch as
// log-probability-shaped scores (rows, vocab). The combination is a
// weighted sum of per-head log-softmax outputs (a weighted geometric mean
// of the head distributions), which is exactly what likelihood-based MCQ
// scoring and cross-entropy evaluation consume.
func (v *Voter) Logits(m *nn.Model, batch [][]int) *ag.Value {
	heads := v.headLogits(m, batch)
	rows, vocab := heads[0].Rows(), heads[0].Cols()
	out := tensor.New(rows, vocab)
	logps := make([]*tensor.Tensor, len(heads))
	for i, h := range heads {
		logps[i] = logSoftmaxRows(h)
	}
	switch v.Mode {
	case VoteUniform, VoteCalibrated:
		for i, lp := range logps {
			w := float32(v.Weights[i])
			for j, val := range lp.Data {
				out.Data[j] += w * val
			}
		}
	case VoteConfidence:
		// Per-row weights ∝ exp(max logprob / τ) with τ = 0.2.
		const tau = 0.2
		ws := make([]float64, len(logps))
		for r := 0; r < rows; r++ {
			var sum float64
			for i, lp := range logps {
				maxLP := lp.Row(r)[0]
				for _, val := range lp.Row(r)[1:] {
					if val > maxLP {
						maxLP = val
					}
				}
				ws[i] = math.Exp(float64(maxLP) / tau)
				sum += ws[i]
			}
			outRow := out.Row(r)
			for i, lp := range logps {
				w := float32(ws[i] / sum)
				for j, val := range lp.Row(r) {
					outRow[j] += w * val
				}
			}
		}
	}
	if obs := obsv.Global(); obs != nil {
		obs.Observe("adapt.vote_agreement", agreementRate(logps, out))
	}
	return ag.Const(out)
}

// agreementRate measures how often an individual head's argmax matches the
// voted argmax, averaged over heads and rows — 1.0 means the ensemble is
// unanimous, values near 1/len(heads) mean the vote is doing real work.
// Only computed when observability is enabled (it rescans every row).
func agreementRate(logps []*tensor.Tensor, voted *tensor.Tensor) float64 {
	rows := voted.Rows()
	if rows == 0 || len(logps) == 0 {
		return 0
	}
	agree := 0
	for r := 0; r < rows; r++ {
		want := argmaxRow(voted.Row(r))
		for _, lp := range logps {
			if argmaxRow(lp.Row(r)) == want {
				agree++
			}
		}
	}
	return float64(agree) / float64(rows*len(logps))
}

func argmaxRow(row []float32) int {
	best := 0
	for j, v := range row[1:] {
		if v > row[best] {
			best = j + 1
		}
	}
	return best
}

// logSoftmaxRows computes a numerically stable row-wise log-softmax.
func logSoftmaxRows(t *tensor.Tensor) *tensor.Tensor {
	r, c := t.Rows(), t.Cols()
	out := tensor.New(r, c)
	for i := 0; i < r; i++ {
		row := t.Row(i)
		o := out.Row(i) // holds the row's exps until the log-softmax overwrites them
		m, logSum := tensor.LogSumExpRow(o, row)
		lse := float32(logSum) + m
		for j, v := range row {
			o[j] = v - lse
		}
	}
	return out
}
