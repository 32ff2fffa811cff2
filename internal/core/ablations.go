package core

import (
	"context"
	"fmt"
	"time"

	"edgellm/internal/adapt"
	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/hwsim"
	"edgellm/internal/luc"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// AblationProbeMetric compares LUC's two sensitivity metrics: the
// zero-forward weight-reconstruction probe vs the calibrated output-KL
// probe. Both feed the same DP search at the same budget; the question is
// how much policy quality the cheap probe gives up.
func AblationProbeMetric(ctx context.Context, pretrainIters, evalBatches int) *Report {
	cfg := DefaultConfig()
	task := NewTask(500, cfg.Model.Vocab)

	task.EnsureBase(ctx, cfg, 2*pretrainIters)
	snap := task.Base

	// Probe calibration comes from the source domain the base knows.
	flat := calibSequences(task.Pretrain, cfg.Batch, cfg.Seq)
	cands := luc.DefaultCandidates()
	const budget = 1.0 // harsh enough for the probes to disagree
	evalPPL := func(m *nn.Model) float64 {
		batches, targets := task.SourceEvalTail(cfg.Batch, cfg.Seq, evalBatches)
		return train.EvalPerplexityWith(m.Logits, batches, targets)
	}

	r := &Report{
		ID:     "A1",
		Title:  fmt.Sprintf("Ablation: LUC sensitivity metric (DP policy at %.2g-bit budget)", budget),
		Header: []string{"Probe metric", "Probe time", "Source PPL post-compress↓"},
		Notes:  "the weight-error probe needs no forward passes; output-KL is the faithful reference",
	}
	for _, tc := range []struct {
		name   string
		metric luc.Metric
	}{
		{"weight-error", luc.MetricWeightError},
		{"output-KL", luc.MetricOutputKL},
	} {
		if ctx.Err() != nil {
			return r // suite cancelled: RunAll discards the partial report
		}
		m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
		restoreParams(m, snap)
		start := time.Now()
		sens := luc.Probe(m, cands, luc.ProbeOptions{Metric: tc.metric, Calib: flat})
		probeTime := time.Since(start)
		policy := luc.SearchDP(sens, cands, budget)
		luc.Apply(m, policy, cands)
		r.AddRow(tc.name, probeTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%.3f", evalPPL(m)))
	}
	return r
}

// AblationPolicySearch compares greedy vs DP policy search on a probed
// sensitivity matrix: achieved cost, achieved budget, and search time.
func AblationPolicySearch(ctx context.Context) *Report {
	cfg := DefaultConfig()
	m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	cands := luc.DefaultCandidates()
	sens := luc.Probe(m, cands, luc.ProbeOptions{Metric: luc.MetricWeightError})

	r := &Report{
		ID:     "A2",
		Title:  "Ablation: LUC policy search — greedy vs dynamic programming",
		Header: []string{"Budget", "Greedy cost", "DP cost", "Gap", "Greedy time", "DP time"},
		Notes:  "DP is optimal under the discretised budget; greedy is the cheap default",
	}
	for _, budget := range []float64{2, 3, 4, 6} {
		t0 := time.Now()
		pg := luc.SearchGreedy(sens, cands, budget)
		tg := time.Since(t0)
		t0 = time.Now()
		pd := luc.SearchDP(sens, cands, budget)
		td := time.Since(t0)
		cg, cd := pg.TotalCost(sens), pd.TotalCost(sens)
		gap := 0.0
		if cd > 0 {
			gap = (cg - cd) / cd * 100
		}
		r.AddRow(fmt.Sprintf("%.0f bits", budget),
			fmt.Sprintf("%.5f", cg), fmt.Sprintf("%.5f", cd),
			fmt.Sprintf("%+.1f%%", gap),
			tg.Round(time.Microsecond).String(), td.Round(time.Microsecond).String())
	}
	return r
}

// AblationWindowStrategy compares the window schedules at equal iteration
// budget: sliding, round-robin, top-only, and sensitivity-guided.
func AblationWindowStrategy(ctx context.Context, iters, evalBatches int) *Report {
	r := &Report{
		ID:     "A3",
		Title:  "Ablation: adaptive-tuning window strategy (voted PPL, vocab-permuted target)",
		Header: []string{"Strategy", "PPL voted↓", "Exits tuned"},
		Notes:  "measured: at a fixed iteration budget, concentrating updates (top-only, round-robin) converges faster than spreading them (sliding), even under this vocabulary-permuted shift — the sliding schedule's value is full-depth reach at top-only memory, which pays off over longer horizons, not faster early convergence",
	}
	baseCfg := DefaultConfig()
	task := NewTask(600, baseCfg.Model.Vocab)
	task.EnsureBase(ctx, baseCfg, 2*iters)
	// Low-level domain shift: same chain statistics, permuted symbols.
	task.Train = data.PermuteTokens(task.Train, 9001)
	task.Eval = data.PermuteTokens(task.Eval, 9001)
	for _, strat := range []adapt.WindowStrategy{
		adapt.StrategySliding, adapt.StrategyRoundRobin,
		adapt.StrategyTopOnly, adapt.StrategySensitivity,
	} {
		if ctx.Err() != nil {
			return r
		}
		cfg := baseCfg
		cfg.Strategy = strat
		p := task.mustAdapt(cfg, task.Train, nil, func(p *Pipeline) { p.Tune(task.Train, iters) })
		ppl := p.EvalPerplexity(task.Eval, evalBatches)
		r.AddRow(strat.String(), fmt.Sprintf("%.3f", ppl),
			fmt.Sprintf("%d/%d", len(p.Tuner.TunedExits()), cfg.Model.Layers))
	}
	return r
}

// AblationVotingMode tunes one pipeline, then evaluates every inference
// combination rule on identical weights.
func AblationVotingMode(ctx context.Context, iters, evalBatches int) *Report {
	cfg := DefaultConfig()
	task := NewTask(700, cfg.Model.Vocab)
	task.EnsureBase(ctx, cfg, 2*iters)
	p := task.mustAdapt(cfg, task.Train, nil, func(p *Pipeline) { p.Tune(task.Train, iters) })

	batches, targets := task.EvalTail(cfg.Batch, cfg.Seq, evalBatches)
	cb, ct := task.EvalTail(cfg.Batch, cfg.Seq, 4)
	exits := append(p.Tuner.TunedExits(), adapt.FinalHead(p.Model))

	r := &Report{
		ID:     "A4",
		Title:  "Ablation: voting mode on identical tuned weights",
		Header: []string{"Inference", "PPL↓"},
		Notes:  "calibrated voting is the paper's adaptive combination; final-head-only discards the tuned exits",
	}
	final := train.EvalPerplexityWith(p.Model.Logits, batches, targets)
	r.AddRow("final head only", fmt.Sprintf("%.3f", final))
	for _, mode := range []adapt.VotingMode{adapt.VoteUniform, adapt.VoteConfidence, adapt.VoteCalibrated} {
		v := adapt.NewVoter(exits, mode)
		if mode == adapt.VoteCalibrated {
			v.Calibrate(p.Model, cb, ct, 0.5)
		}
		ppl := train.EvalPerplexityWith(func(b [][]int) *ag.Value { return v.Logits(p.Model, b) }, batches, targets)
		r.AddRow("voting: "+mode.String(), fmt.Sprintf("%.3f", ppl))
	}
	return r
}

// AblationFusion quantifies elementwise-fusion: the per-iteration cost of
// the compressed Edge-LLM workload with norm/residual/activation passes
// fused into GEMM epilogues vs paying their own DRAM round trips.
func AblationFusion(ctx context.Context) *Report {
	dev := hwsim.EdgeGPU()
	cfg := EdgeModelConfig()
	const batch, seq = 4, 256
	sched := hwsim.NewSearchedScheduler()
	comp := hwsim.LayerCompression{Bits: 4, Sparsity: 0.5}

	r := &Report{
		ID:     "A6",
		Title:  "Ablation: elementwise-op fusion on the compressed block workload",
		Header: []string{"Setting", "Block fwd", "Block bwd", "Iteration (window 2)", "Penalty"},
		Notes:  "fusion folds norms/residuals/activations into GEMM epilogues; compression makes the saved traffic a larger share",
	}
	iter := func(fused bool) float64 {
		var total float64
		// forward to the window top (layer 11) + backward over the window
		for i := 0; i <= 11; i++ {
			total += hwsim.BlockForwardCostOpts(dev, sched, cfg, batch, seq, comp, fused).TotalSec
		}
		for i := 10; i <= 11; i++ {
			total += hwsim.BlockBackwardCostOpts(dev, sched, cfg, batch, seq, comp, fused).TotalSec
		}
		return total
	}
	fwdF := hwsim.BlockForwardCostOpts(dev, sched, cfg, batch, seq, comp, true).TotalSec
	fwdU := hwsim.BlockForwardCostOpts(dev, sched, cfg, batch, seq, comp, false).TotalSec
	bwdF := hwsim.BlockBackwardCostOpts(dev, sched, cfg, batch, seq, comp, true).TotalSec
	bwdU := hwsim.BlockBackwardCostOpts(dev, sched, cfg, batch, seq, comp, false).TotalSec
	itF, itU := iter(true), iter(false)
	r.AddRow("fused", fmtMS(fwdF), fmtMS(bwdF), fmtMS(itF), "1.00x")
	r.AddRow("unfused", fmtMS(fwdU), fmtMS(bwdU), fmtMS(itU), fmt.Sprintf("%.2fx", itU/itF))
	return r
}

// AblationRefine compares the probe-driven DP policy against the same
// policy post-processed by joint-KL coordinate descent (luc.RefinePolicy),
// at harsh budgets where the probe's additivity assumption bites.
func AblationRefine(ctx context.Context, pretrainIters, evalBatches int) *Report {
	cfg := DefaultConfig()
	task := NewTask(800, cfg.Model.Vocab)
	task.EnsureBase(ctx, cfg, 2*pretrainIters)

	flat := calibSequences(task.Pretrain, cfg.Batch, cfg.Seq)
	cands := luc.DefaultCandidates()
	evalSource := func(m *nn.Model) float64 {
		batches, targets := task.SourceEvalTail(cfg.Batch, cfg.Seq, evalBatches)
		return train.EvalPerplexityWith(m.Logits, batches, targets)
	}

	r := &Report{
		ID:     "A7",
		Title:  "Ablation: joint-KL policy refinement over probe-driven DP",
		Header: []string{"Budget", "DP source PPL↓", "DP+refine source PPL↓", "Δ"},
		Notes:  "refinement fixes the probe's per-layer additivity blind spot (extension beyond the paper)",
	}
	for _, budget := range []float64{2, 1, 0.75} {
		if ctx.Err() != nil {
			return r
		}
		m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
		task.ApplyBase(m)
		sens := luc.Probe(m, cands, luc.ProbeOptions{Metric: luc.MetricOutputKL, Calib: flat})
		dp := luc.SearchDP(sens, cands, budget)
		refined := luc.RefinePolicy(m, dp, cands, budget, flat, 2)

		mDP := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
		task.ApplyBase(mDP)
		luc.Apply(mDP, dp, cands)
		pplDP := evalSource(mDP)

		mRef := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
		task.ApplyBase(mRef)
		luc.Apply(mRef, refined, cands)
		pplRef := evalSource(mRef)

		r.AddRow(fmt.Sprintf("%.2g bits", budget),
			fmt.Sprintf("%.3f", pplDP), fmt.Sprintf("%.3f", pplRef),
			fmt.Sprintf("%+.3f", pplRef-pplDP))
	}
	return r
}

// AblationScheduleSearch compares the schedule search methods across the
// compressed workload's kernels: quality and search cost.
func AblationScheduleSearch(ctx context.Context) *Report {
	dev := hwsim.EdgeGPU()
	cfg := EdgeModelConfig()
	rows := 4 * 256
	kernels := []hwsim.GEMM{
		{M: rows, K: cfg.Dim, N: cfg.Dim, WeightBits: 4, WeightSparsity: 0.5},
		{M: rows, K: cfg.Dim, N: cfg.Hidden, WeightBits: 4, WeightSparsity: 0.5},
		{M: rows, K: cfg.Hidden, N: cfg.Dim, WeightBits: 3, WeightSparsity: 0.5},
		{M: rows, K: cfg.Dim, N: cfg.Vocab, WeightBits: 16},
	}
	r := &Report{
		ID:     "A5",
		Title:  "Ablation: schedule search method (sum over representative kernels)",
		Header: []string{"Method", "Total latency", "vs exhaustive", "Search time"},
		Notes:  "annealing trades a small quality gap for a large search-time cut on big spaces",
	}

	var naiveSum, exSum, saSum float64
	var exTime, saTime time.Duration
	for _, g := range kernels {
		naiveSum += hwsim.NaiveSchedule().Cost(dev, g).TotalSec
		t0 := time.Now()
		_, c := hwsim.SearchExhaustive(dev, g)
		exTime += time.Since(t0)
		exSum += c.TotalSec
		t0 = time.Now()
		_, cs := hwsim.SearchAnnealed(dev, g, 9, 800)
		saTime += time.Since(t0)
		saSum += cs.TotalSec
	}
	r.AddRow("naive (no search)", fmtMS(naiveSum), fmt.Sprintf("%.2fx", naiveSum/exSum), "0s")
	r.AddRow("exhaustive", fmtMS(exSum), "1.00x", exTime.Round(time.Microsecond).String())
	r.AddRow("simulated annealing (800 steps)", fmtMS(saSum), fmt.Sprintf("%.2fx", saSum/exSum), saTime.Round(time.Microsecond).String())
	return r
}
