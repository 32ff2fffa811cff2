// mcq adapts a model to a synthetic knowledge-base question-answering task
// (the stand-in for the paper's commonsense corpora) and shows what each
// piece of the voting scheme contributes: single exits, uniform voting,
// confidence voting, and calibrated voting.
//
//	go run ./examples/mcq
package main

import (
	"context"
	"fmt"

	"edgellm/internal/adapt"
	ag "edgellm/internal/autograd"
	"edgellm/internal/core"
	"edgellm/internal/train"
)

func main() {
	cfg := core.DefaultConfig()
	task := core.NewTask(555, cfg.Model.Vocab)

	fmt.Printf("MCQ task: %d train / %d test questions, %d options each\n",
		len(task.MCQ.Train), len(task.MCQ.Test), len(task.MCQ.Train[0].Options))
	fmt.Printf("chance accuracy: %.1f%%\n\n", 100.0/float64(len(task.MCQ.Train[0].Options)))

	fmt.Println("pretraining the base model on the source LM stream...")
	task.EnsureBase(context.Background(), cfg, 600)

	p, err := task.Adapt(cfg, task.Train, nil, func(p *core.Pipeline) {
		fmt.Printf("compressed backbone to %.2f avg bits; tuning on the MCQ split...\n\n", p.Info.AvgEffectiveBits)
		p.TuneMCQ(task.MCQ, 400)
	})
	if err != nil {
		panic(err)
	}

	// Score the test split through each head individually...
	for _, exit := range []int{0, cfg.Model.Layers / 2, cfg.Model.Layers - 1} {
		acc := train.MCQAccuracy(func(b [][]int) *ag.Value {
			return p.Model.LogitsAtExit(b, exit)
		}, task.MCQ.Test)
		fmt.Printf("exit at layer %d alone:        %.1f%%\n", exit, acc*100)
	}
	accFinal := train.MCQAccuracy(func(b [][]int) *ag.Value {
		return p.Model.Logits(b)
	}, task.MCQ.Test)
	fmt.Printf("final head alone:             %.1f%%\n\n", accFinal*100)

	// ...and through each voting mode over all tuned exits + final head.
	exits := append(p.Tuner.TunedExits(), adapt.FinalHead(p.Model))
	// Calibration batches come from MCQ training sequences.
	var cb [][][]int
	var ct [][]int
	for i := 0; i < 10 && i < len(task.MCQ.Train); i++ {
		in, tg := task.MCQ.Train[i].TrainSequence(-1)
		cb = append(cb, [][]int{in})
		ct = append(ct, tg)
	}
	for _, mode := range []adapt.VotingMode{adapt.VoteUniform, adapt.VoteConfidence, adapt.VoteCalibrated} {
		v := adapt.NewVoter(exits, mode)
		if mode == adapt.VoteCalibrated {
			v.Calibrate(p.Model, cb, ct, 0.5)
		}
		acc := train.MCQAccuracy(func(b [][]int) *ag.Value {
			return v.Logits(p.Model, b)
		}, task.MCQ.Test)
		fmt.Printf("voting (%s): %*s%.1f%%\n", mode, 14-len(mode.String()), "", acc*100)
	}
	fmt.Println("\nexpected shape: voting is competitive with the best single head")
	fmt.Println("without knowing in advance which head that is — the point of the")
	fmt.Println("adaptive combination (see ablation A4 for the LM-perplexity version).")
}
