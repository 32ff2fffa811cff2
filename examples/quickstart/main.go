// Quickstart: the shortest path through the Edge-LLM pipeline — build a
// model, compress it with LUC, adapt it with adaptive layer tuning, and
// run voted inference.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"edgellm/internal/core"
	"edgellm/internal/hwsim"
)

func main() {
	// 1. Configure. DefaultConfig is a 6-layer toy transformer plus the
	// Edge-LLM knobs: a 3-bit average compression budget, a 2-layer
	// tuning window, and calibrated voting.
	cfg := core.DefaultConfig()
	task := core.NewTask(7, cfg.Model.Vocab)

	// Pretrain the shared base model on the source domain once — the
	// paper's setting is adapting a *pretrained* LLM, not training from
	// scratch.
	fmt.Println("pretraining base model on the source domain...")
	task.EnsureBase(context.Background(), cfg, 600)

	// task.Adapt is the Edge-LLM recipe in one call; the two callbacks are
	// the stages a caller customises.
	p, err := task.Adapt(cfg, task.Train, func(p *core.Pipeline) {
		// Still the uncompressed pretrained base.
		fmt.Printf("target-domain perplexity before adaptation: %.2f\n", p.EvalPerplexity(task.Eval, 8))
	}, func(p *core.Pipeline) {
		// 2. Compressed: Adapt probed per-layer sensitivity on calibration
		// sequences from task.Train, picked a layerwise (bits, sparsity)
		// policy under the budget, and applied it to the backbone.
		fmt.Printf("LUC policy: %s (avg %.2f bits)\n",
			p.Policy.Describe(p.Candidates()), p.Info.AvgEffectiveBits)

		// 3. Adapt: each iteration tunes one window of layers with the loss
		// at that window's exit head, bounding backprop depth and memory.
		losses := p.Tune(task.Train, 300)
		fmt.Printf("tuning loss: %.3f → %.3f over %d iterations\n",
			losses[0], losses[len(losses)-1], len(losses))
	})
	if err != nil {
		panic(err)
	}

	// 4. Vote: Adapt combined the tuned exit heads, calibrated on held-out
	// data; evaluate the voted inference path.
	fmt.Printf("target-domain perplexity after adaptation (voted): %.2f\n", p.EvalPerplexity(task.Eval, 8))

	// 5. Report the modeled edge-device cost of one tuning iteration.
	// (This toy model is launch-latency-bound on a 1 TFLOP/s device, hence
	// the tiny utilization; `edgellm experiments -t T3` shows the
	// TinyLlama-class workload where scheduling matters.)
	mem := p.Memory()
	iter := p.IterationCost(hwsim.NewSearchedScheduler())
	fmt.Printf("per-iteration: %.2f KiB tuning memory, %.2f ms on %s\n",
		float64(mem.Total())/1024, iter.TotalSec*1e3, cfg.Device.Name)
}
