package train

import (
	"math"

	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// Perplexity converts a mean cross-entropy (nats/token) to perplexity.
func Perplexity(meanCE float64) float64 { return math.Exp(meanCE) }

// EvalPerplexity measures the model's final-head perplexity over
// deterministic sequential batches of the corpus, on one no-grad forward
// (nn.Forward) for all of them.
func EvalPerplexity(m *nn.Model, c *data.Corpus, batchSize, seqLen, maxBatches int) float64 {
	batches, targets := c.SequentialBatches(batchSize, seqLen, maxBatches)
	return EvalModelPerplexity(m, batches, targets)
}

// EvalModelPerplexity measures m's final-head perplexity over the given
// batches, on one no-grad forward (nn.Forward) for all of them. m must
// carry no LoRA hook: nn.Forward panics on one.
func EvalModelPerplexity(m *nn.Model, batches [][][]int, targets [][]int) float64 {
	f := nn.NewForward(m)
	return EvalPerplexityWith(func(b [][]int) *ag.Value { return ag.Const(f.Logits(b)) }, batches, targets)
}

// EvalPerplexityWith measures perplexity with a caller-supplied forward
// function — used to evaluate exit heads and voting ensembles with the same
// protocol as the final head. Each batch's logits are read before the next
// call, so forward may return its own scratch.
func EvalPerplexityWith(forward func([][]int) *ag.Value, batches [][][]int, targets [][]int) float64 {
	var totalCE float64
	var n int
	for i, b := range batches {
		logits := forward(b).Detach()
		ce := ag.CrossEntropy(logits, targets[i], -1)
		totalCE += float64(ce.Data.Data[0]) * float64(len(targets[i]))
		n += len(targets[i])
	}
	if n == 0 {
		return math.NaN()
	}
	return Perplexity(totalCE / float64(n))
}

// SequenceLogProb returns the summed log-probability of the supervised
// targets (ignoreIndex skipped) under the given logits. Used for MCQ
// option scoring.
func SequenceLogProb(logits *ag.Value, targets []int, ignoreIndex int) float64 {
	n, vocab := logits.Data.Rows(), logits.Data.Cols()
	e := make([]float32, vocab) // the row's exps; only their float64 sum is read
	var sum float64
	for i := 0; i < n; i++ {
		t := targets[i]
		if t == ignoreIndex {
			continue
		}
		row := logits.Data.Row(i)
		m, logSum := tensor.LogSumExpRow(e, row) // log softmax at index t
		sum += float64(row[t]-m) - logSum
	}
	return sum
}

// MCQAccuracy answers every example by scoring each option's likelihood
// with the supplied forward function and returns the fraction answered
// correctly.
func MCQAccuracy(forward func([][]int) *ag.Value, examples []data.MCQExample) float64 {
	if len(examples) == 0 {
		return math.NaN()
	}
	correct := 0
	for _, e := range examples {
		inputs, targets := e.ScoreSequences(-1)
		best, bestScore := -1, math.Inf(-1)
		for o := range inputs {
			logits := forward([][]int{inputs[o]}).Detach()
			score := SequenceLogProb(logits, targets[o], -1)
			if score > bestScore {
				best, bestScore = o, score
			}
		}
		if best == e.Answer {
			correct++
		}
	}
	return float64(correct) / float64(len(examples))
}
