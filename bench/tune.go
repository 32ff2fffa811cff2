package main

import (
	"fmt"
	"time"

	ag "edgellm/internal/autograd"
	"edgellm/internal/core"
	"edgellm/internal/data"
	"edgellm/internal/hwsim"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// tuneInputs is everything the tuning workload is given: a training stream
// and a held-out stream cut from one Markov chain, so the held-out text has
// the statistics the model is tuned on.
type tuneInputs struct {
	train, heldOut *data.Corpus
	calib          [][]int   // sequences for the LUC output-KL probe
	voteIn         [][][]int // held-out batches that calibrate the vote
	voteTargets    [][]int
	evalFrom       *data.Corpus // held-out text after the vote batches
	prompts        [][]int      // prompts for voted generation
}

func genTuneInputs(seed int64) tuneInputs {
	const length, heldOutShare = 24000, 4 // the last quarter is held out
	all := data.MarkovCorpus(seed, tuneModel.Vocab, length, 4)
	cut := length - length/heldOutShare
	in := tuneInputs{
		train:   &data.Corpus{Tokens: all.Tokens[:cut], Vocab: all.Vocab},
		heldOut: &data.Corpus{Tokens: all.Tokens[cut:], Vocab: all.Vocab},
	}
	rng := tensor.NewRNG(seed)
	in.calib, _ = in.train.Batch(rng, tuneCalib, tuneSeq)
	in.voteIn, in.voteTargets = in.heldOut.SequentialBatches(tuneBatch, tuneSeq, voteBatches)
	used := voteBatches * tuneBatch * (tuneSeq + 1)
	in.evalFrom = &data.Corpus{Tokens: in.heldOut.Tokens[used:], Vocab: all.Vocab}
	for i := 0; i < genPrompts; i++ {
		start := rng.Intn(len(in.evalFrom.Tokens) - genPrompt)
		in.prompts = append(in.prompts, in.evalFrom.Tokens[start:start+genPrompt])
	}
	return in
}

func tuneConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Model = tuneModel
	cfg.Seed = serveModelSeed
	cfg.BudgetBits = tuneBits
	cfg.WindowSize = tuneWindow
	cfg.Batch, cfg.Seq = tuneBatch, tuneSeq
	return cfg
}

// newTunePipeline is the tuning workload's set-up: build, LUC-compress,
// price one iteration on the simulated device with searched schedules, and
// arm the windowed tuner.
func newTunePipeline(in tuneInputs) (*core.Pipeline, error) {
	p, err := core.New(tuneConfig())
	if err != nil {
		return nil, err
	}
	if err := p.Compress(in.calib); err != nil {
		return nil, err
	}
	p.IterationCost(hwsim.NewSearchedScheduler()) // the schedule search is part of set-up; its result is not a metric here
	if err := p.StartTuning(); err != nil {
		return nil, err
	}
	return p, nil
}

// tuneSteps runs n TuneSteps, timing each. A step whose loss is not finite,
// or that the trainer's divergence guard skipped, counts as failed.
func tuneSteps(p *core.Pipeline, c *data.Corpus, n int, tr *tracer, parent int) (stepMS []float64, failed int) {
	stepMS = make([]float64, n)
	for i := range stepMS {
		before := p.Trainer.StepCount()
		id := tr.begin("pipeline.TuneStep", parent, "")
		start := time.Now()
		loss := p.TuneStep(c)
		stepMS[i] = ms(time.Since(start))
		tr.end(id)
		if !finite(loss) || p.Trainer.StepCount() != before+1 {
			failed++
		}
	}
	return stepMS, failed
}

// votedGenerate extends each prompt through the pipeline's voting forward,
// re-running it on the growing sequence (the pipeline has no KV cache). It
// returns, for each prompt, the time of its first forward (time to first
// token of the tuned model) and the median of the later ones (gap between
// tokens): each prompt is one rep. With a stopwatch each generation is a lap
// and its times are at the reference clock. A generation that yields an
// out-of-range token counts as failed.
func votedGenerate(p *core.Pipeline, prompts [][]int, seed int64, sw *stopwatch, tr *tracer, parent int) (ttftMS, itlMS []float64, failed int) {
	for i, prompt := range prompts {
		cfg := sampleConfig(seed+int64(i), genTokens)
		g := tensor.NewRNG(cfg.Seed)
		seq := append([]int(nil), prompt...)
		root := tr.begin("pipeline.generate", parent, fmt.Sprintf("gen-%d", i))
		var forwards []float64
		generate := func() {
			for step := 0; step < genTokens; step++ {
				start := time.Now()
				scores := p.Forward([][]int{seq})
				next := nn.SampleLogits(scores.Data.Row(scores.Data.Rows()-1), cfg, g)
				ag.ReleaseTape(scores)
				forwards = append(forwards, ms(time.Since(start)))
				seq = append(seq, next)
			}
		}
		if sw != nil {
			slow := sw.lap(generate)
			for j := range forwards {
				forwards[j] /= slow
			}
		} else {
			generate()
		}
		tr.end(root)
		ttftMS = append(ttftMS, forwards[0])
		itlMS = append(itlMS, median(forwards[1:]))
		for _, t := range seq {
			if t < 0 || t >= tuneModel.Vocab {
				failed++
				break
			}
		}
	}
	return ttftMS, itlMS, failed
}
