package core

import (
	"context"
	"fmt"

	"edgellm/internal/adapt"
	"edgellm/internal/hwsim"
	"edgellm/internal/luc"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// EdgeModelConfig is the LLaMA-shaped configuration used by the purely
// analytic hardware experiments (T3, F1, F4, F5): TinyLlama-class
// dimensions, evaluated on the simulated edge GPU without training.
func EdgeModelConfig() nn.Config {
	return nn.Config{
		Vocab: 32000, Dim: 2048, Heads: 16, Layers: 22, Hidden: 5632,
		MaxSeq: 512, ExitHeads: true,
	}
}

// ExperimentT1 regenerates Table T1: the main method comparison on the
// synthetic task suite.
func ExperimentT1(ctx context.Context, opts RunOpts) *Report {
	cfg := DefaultConfig()
	task := NewTask(100, cfg.Model.Vocab)
	task.EnsureBase(ctx, cfg, opts.PretrainIters)

	// The base snapshot is built once above; each method then constructs its
	// own model, trainer, and RNGs from fixed seeds, so the runs are
	// independent and can execute on the worker pool in any order.
	runs := []func(context.Context) MethodResult{
		func(ctx context.Context) MethodResult { return RunVanillaFT(ctx, cfg, task, opts) },
		func(ctx context.Context) MethodResult { return RunGradCheckpoint(ctx, cfg, task, opts, 3) },
		func(ctx context.Context) MethodResult { return RunLoRA(ctx, cfg, task, opts, 4) },
		func(ctx context.Context) MethodResult { return RunLST(ctx, cfg, task, opts, 4) },
		func(ctx context.Context) MethodResult { return RunLayerFreeze(ctx, cfg, task, opts, cfg.WindowSize) },
		func(ctx context.Context) MethodResult { return RunEdgeLLM(ctx, cfg, task, opts) },
	}
	methods := make([]MethodResult, len(runs))
	parallelFor(len(runs), func(i int) { methods[i] = runs[i](ctx) })
	vanillaIter := methods[0].IterCost.TotalSec
	vanillaMem := methods[0].Memory.Total()

	r := &Report{
		ID:     "T1",
		Title:  "Main comparison: tuning quality vs per-iteration cost",
		Header: []string{"Method", "PPL↓", "MCQ acc↑", "Trainable", "Tuning mem", "Mem red.", "Iter latency", "Speedup"},
		Notes:  "paper claim: Edge-LLM ≈ vanilla accuracy with 2.92× iteration speedup and large memory savings",
	}
	for _, m := range methods {
		r.AddRow(
			m.Name,
			fmt.Sprintf("%.3f", m.PPL),
			fmt.Sprintf("%.1f%%", m.MCQAcc*100),
			fmt.Sprintf("%d", m.TrainableParams),
			fmtBytes(m.Memory.Total()),
			fmt.Sprintf("%.2fx", float64(vanillaMem)/float64(m.Memory.Total())),
			fmtMS(m.IterCost.TotalSec),
			fmt.Sprintf("%.2fx", vanillaIter/m.IterCost.TotalSec),
		)
	}
	return r
}

// ExperimentT2 regenerates Table T2: LUC vs uniform compression at equal
// bit budgets, measured as post-compression perplexity and post-tuning
// perplexity.
func ExperimentT2(ctx context.Context, tuneIters, evalBatches int) *Report {
	cfg := DefaultConfig()
	task := NewTask(200, cfg.Model.Vocab)
	cands := luc.DefaultCandidates()

	r := &Report{
		ID:     "T2",
		Title:  "LUC vs uniform compression at equal average bit budget",
		Header: []string{"Policy", "Budget", "Avg bits", "Source PPL post-compress↓", "Target PPL after tuning↓"},
		Notes:  "paper claim: layerwise (LUC) policies dominate uniform ones at every budget; post-compress damage is measured on the source domain the base was trained on",
	}

	// Pretrain the shared base on the source corpus so compression damages
	// a model that actually fits data (otherwise all policies look alike);
	// each policy then adapts toward the target corpus.
	task.EnsureBase(ctx, cfg, 2*tuneIters)
	snapshot := task.Base

	evalPPL := func(m *nn.Model) float64 {
		batches, targets := task.EvalTail(cfg.Batch, cfg.Seq, evalBatches)
		return train.EvalPerplexityWith(m.Logits, batches, targets)
	}
	evalSourcePPL := func(m *nn.Model) float64 {
		batches, targets := task.SourceEvalTail(cfg.Batch, cfg.Seq, evalBatches)
		return train.EvalPerplexityWith(m.Logits, batches, targets)
	}

	type policyCase struct {
		name   string
		budget float64
		make   func(sens luc.Sensitivity) luc.Policy
	}
	var cases []policyCase
	for _, budget := range []float64{2, 1, 0.75} {
		b := budget
		cases = append(cases,
			policyCase{"Uniform", b, func(_ luc.Sensitivity) luc.Policy {
				return luc.UniformAtBudget(cfg.Model.Layers, cands, b)
			}},
			policyCase{"LUC (DP)", b, func(s luc.Sensitivity) luc.Policy {
				return luc.SearchDP(s, cands, b)
			}},
		)
	}

	// Calibrate the probe on the source domain: the base model has not
	// seen the target yet when compression is applied.
	calibFlat := calibSequences(task.Pretrain, cfg.Batch, cfg.Seq)

	// Each (policy, budget) grid point compresses and re-tunes its own copy
	// of the shared base with its own RNG, so points run independently on
	// the worker pool and rows are assembled in case order.
	rows := make([][]string, len(cases))
	parallelFor(len(cases), func(ci int) {
		pc := cases[ci]
		// Grid points run concurrently: each takes its own trace track
		// under the experiment span.
		grid := obsv.SpanFromContext(ctx).ChildTrack("grid_point",
			obsv.L("policy", pc.name), obsv.L("budget", fmt.Sprintf("%.2g", pc.budget)))
		defer grid.End()
		m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
		restoreParams(m, snapshot)
		sens := luc.Probe(m, cands, luc.ProbeOptions{Metric: luc.MetricOutputKL, Calib: calibFlat, Trace: grid})
		policy := pc.make(sens)
		info := luc.Apply(m, policy, cands)
		post := evalSourcePPL(m)

		// Short recovery tuning with the adaptive tuner.
		tuner, err := adapt.NewTuner(m, adapt.TunerConfig{WindowSize: cfg.WindowSize, Strategy: adapt.StrategySliding})
		if err != nil {
			panic(err)
		}
		tuner.Trace = grid
		tr := train.NewTrainer(train.NewAdamW(cfg.WeightDecay), cfg.LR, cfg.ClipNorm)
		rng := tensor.NewRNG(8)
		for i := 0; i < tuneIters; i++ {
			if ctx.Err() != nil {
				return // suite cancelled: RunAll discards the partial report
			}
			inputs, targets := task.Train.Batch(rng, cfg.Batch, cfg.Seq)
			tuner.Step(tr, inputs, targets)
		}
		tuned := evalPPL(m)

		rows[ci] = []string{pc.name, fmt.Sprintf("%.2g bits", pc.budget),
			fmt.Sprintf("%.2f", info.AvgEffectiveBits),
			fmt.Sprintf("%.3f", post), fmt.Sprintf("%.3f", tuned)}
	})
	for _, row := range rows {
		r.AddRow(row...)
	}
	return r
}

// snapshotParams deep-copies all model parameters.
func snapshotParams(m *nn.Model) []*tensor.Tensor {
	ps := m.Params()
	out := make([]*tensor.Tensor, len(ps))
	for i, p := range ps {
		out[i] = p.Value.Data.Clone()
	}
	return out
}

// restoreParams copies a snapshot into a same-architecture model.
func restoreParams(m *nn.Model, snap []*tensor.Tensor) {
	ps := m.Params()
	if len(ps) != len(snap) {
		panic("core: snapshot/model mismatch")
	}
	for i, p := range ps {
		p.Value.Data.CopyFrom(snap[i])
	}
}

// ExperimentT3 regenerates Table T3: scheduling search results on the
// LLaMA-shaped edge workload — naive vs searched schedules for vanilla and
// Edge-LLM iterations, including the headline end-to-end speedup.
func ExperimentT3(ctx context.Context) *Report {
	dev := hwsim.EdgeGPU()
	cfg := EdgeModelConfig()
	const batch, seq = 4, 256

	vanilla := hwsim.VanillaIteration(cfg, batch, seq)

	// A representative LUC policy: the embedding-adjacent and final layers
	// stay at 8-bit/light pruning (they probe as sensitive), the middle of
	// the stack is compressed hard — the profile SearchDP produces on
	// trained models (see F3).
	edge := hwsim.VanillaIteration(cfg, batch, seq)
	for i := range edge.Compression {
		switch {
		case i < 2 || i == cfg.Layers-1:
			edge.Compression[i] = hwsim.LayerCompression{Bits: 8, Sparsity: 0.25}
		case i%2 == 0:
			edge.Compression[i] = hwsim.LayerCompression{Bits: 4, Sparsity: 0.5}
		default:
			edge.Compression[i] = hwsim.LayerCompression{Bits: 3, Sparsity: 0.5}
		}
	}
	// The windowed iteration, averaged over a sliding cycle.
	edgeAvg := func(sched hwsim.Scheduler) hwsim.Cost {
		return hwsim.CycleCost(dev, sched, edge, cfg.Layers, hwsim.SlidingWindow(2))
	}

	// Each configuration owns its scheduler (the searched one memoises per
	// instance), so the four cost evaluations are independent grid points.
	rows := []struct {
		name string
		cost func() hwsim.Cost
	}{
		{"Vanilla, naive sched", func() hwsim.Cost { return hwsim.IterationCost(dev, hwsim.NaiveScheduler{}, vanilla) }},
		{"Vanilla, searched", func() hwsim.Cost { return hwsim.IterationCost(dev, hwsim.NewSearchedScheduler(), vanilla) }},
		{"Edge-LLM, naive sched", func() hwsim.Cost { return edgeAvg(hwsim.NaiveScheduler{}) }},
		{"Edge-LLM, searched", func() hwsim.Cost { return edgeAvg(hwsim.NewSearchedScheduler()) }},
	}
	costs := make([]hwsim.Cost, len(rows))
	parallelFor(len(rows), func(i int) { costs[i] = rows[i].cost() })
	base := costs[1].TotalSec // vanilla with good (cuBLAS-like) schedules

	r := &Report{
		ID:     "T3",
		Title:  "Hardware scheduling on the TinyLlama-class edge workload (per tuning iteration)",
		Header: []string{"Configuration", "Latency", "Compute", "DRAM", "Util", "Speedup vs vanilla"},
		Notes:  "paper claim: 2.92× per-iteration speedup over vanilla tuning at comparable accuracy",
	}
	for i, row := range rows {
		cost := costs[i]
		r.AddRow(row.name,
			fmtMS(cost.TotalSec),
			fmtMS(cost.ComputeSec),
			fmtMS(cost.MemorySec),
			fmt.Sprintf("%.1f%%", cost.Utilization(dev)*100),
			fmt.Sprintf("%.2fx", base/cost.TotalSec),
		)
	}
	return r
}

// ExperimentF1 regenerates Figure F1: the per-iteration memory breakdown
// of each method on the LLaMA-shaped edge model.
func ExperimentF1(ctx context.Context) *Report {
	cfg := EdgeModelConfig()
	const batch, seq, window = 4, 256, 2

	// Baselines carry no exit heads; Edge-LLM uses tied exits (one extra
	// RMSNorm gain per layer, sharing the final vocab projection).
	baseCfg := cfg
	baseCfg.ExitHeads = false
	edgeCfg := cfg
	edgeCfg.TieExitHeads = true

	vanilla := train.VanillaSpec(baseCfg, batch, seq, adamWBytes)
	lora := vanilla
	lora.TrainableElems = adapt.LoRAElems(baseCfg, 8)

	freeze := vanilla
	freeze.TapeBlocks = window
	freeze.TrainableElems = window * train.BlockElems(cfg)

	edge := train.WindowSpec(edgeCfg, batch, seq, window, false,
		train.PerLayer(cfg.Layers, 4), train.PerLayer(cfg.Layers, 0.5), adamWBytes)

	r := &Report{
		ID:     "F1",
		Title:  "Per-iteration tuning memory breakdown (TinyLlama-class model)",
		Header: []string{"Method", "Weights", "Activations", "Gradients", "Opt state", "Total", "vs vanilla"},
		Notes:  "paper motivation: activations+optimizer dominate vanilla tuning; Edge-LLM bounds both via windowed backprop and shrinks weights via LUC",
	}
	specs := []struct {
		name string
		spec train.MemorySpec
	}{
		{"Vanilla FT", vanilla},
		{"Grad-ckpt FT (4 seg)", train.CheckpointedSpec(vanilla, 4)},
		{"LoRA (r=8)", lora},
		{"Layer-freeze (k=2)", freeze},
		{"Edge-LLM (W=2, LUC 4b@50%)", edge},
	}
	base := train.EstimateMemory(vanilla).Total()
	for _, s := range specs {
		b := train.EstimateMemory(s.spec)
		r.AddRow(s.name, fmtBytes(b.Weights), fmtBytes(b.Activations),
			fmtBytes(b.Grads), fmtBytes(b.OptState), fmtBytes(b.Total()),
			fmt.Sprintf("%.2fx", float64(base)/float64(b.Total())))
	}
	return r
}

// ExperimentF2 regenerates Figure F2: held-out perplexity as a function of
// the tuned window size, with and without voting.
func ExperimentF2(ctx context.Context, iters, evalBatches int) *Report {
	cfg := DefaultConfig()
	task := NewTask(300, cfg.Model.Vocab)

	task.EnsureBase(ctx, cfg, 2*iters)

	r := &Report{
		ID:     "F2",
		Title:  "Quality vs tuned-window size, with and without adaptive voting",
		Header: []string{"Window", "PPL final head↓", "PPL voted↓", "Voting gain"},
		Notes:  "paper claim: voting recovers the quality lost by shallow windows",
	}
	// Window sizes are independent grid points: each builds its own
	// pipeline from the shared base snapshot and tunes with its own RNGs.
	windows := []int{1, 2, 3, cfg.Model.Layers}
	rows := make([][]string, len(windows))
	parallelFor(len(windows), func(wi int) {
		w := windows[wi]
		grid := obsv.SpanFromContext(ctx).ChildTrack("grid_point", obsv.L("window", fmt.Sprint(w)))
		defer grid.End()
		c := cfg
		c.WindowSize = w
		p := task.mustAdapt(c, task.Train, func(p *Pipeline) { p.Trace = grid },
			func(p *Pipeline) { p.Tune(task.Train, iters) })

		batches, targets := task.EvalTail(c.Batch, c.Seq, evalBatches)
		final := train.EvalPerplexityWith(p.Model.Logits, batches, targets)
		voted := train.EvalPerplexityWith(p.Forward, batches, targets)

		rows[wi] = []string{fmt.Sprintf("%d/%d", w, c.Model.Layers),
			fmt.Sprintf("%.3f", final), fmt.Sprintf("%.3f", voted),
			fmt.Sprintf("%+.3f", final-voted)}
	})
	for _, row := range rows {
		r.AddRow(row...)
	}
	return r
}

// ExperimentF3 regenerates Figure F3: the per-layer sensitivity profile
// that motivates layerwise policies.
func ExperimentF3(ctx context.Context, pretrainIters int) *Report {
	cfg := DefaultConfig()
	task := NewTask(400, cfg.Model.Vocab)
	task.EnsureBase(ctx, cfg, 2*pretrainIters)
	m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	task.ApplyBase(m)

	calibFlat := calibSequences(task.Train, cfg.Batch, cfg.Seq)
	cands := []luc.Candidate{{Bits: 8}, {Bits: 4}, {Bits: 2}, {Bits: 4, Sparsity: 0.5}}
	sens := luc.Probe(m, cands, luc.ProbeOptions{
		Metric: luc.MetricOutputKL, Calib: calibFlat, Trace: obsv.SpanFromContext(ctx),
	})

	r := &Report{
		ID:     "F3",
		Title:  "Per-layer compression sensitivity (output KL vs full precision)",
		Header: []string{"Layer", "8-bit", "4-bit", "2-bit", "4b@50%"},
		Notes:  "paper motivation: sensitivity varies strongly across depth, so uniform policies waste budget",
	}
	for layer := range sens {
		r.AddRow(fmt.Sprintf("%d", layer),
			fmt.Sprintf("%.4f", sens[layer][0]),
			fmt.Sprintf("%.4f", sens[layer][1]),
			fmt.Sprintf("%.4f", sens[layer][2]),
			fmt.Sprintf("%.4f", sens[layer][3]))
	}
	return r
}

// ExperimentF4 regenerates Figure F4: modeled per-iteration speedup as a
// function of the backprop window size (where the headline speedup comes
// from).
func ExperimentF4(ctx context.Context) *Report {
	dev := hwsim.EdgeGPU()
	cfg := EdgeModelConfig()
	const batch, seq = 4, 256
	sched := hwsim.NewSearchedScheduler()
	vanilla := hwsim.IterationCost(dev, sched, hwsim.VanillaIteration(cfg, batch, seq))

	r := &Report{
		ID:     "F4",
		Title:  "Per-iteration speedup vs backprop window size (LUC 4b@50% backbone)",
		Header: []string{"Window", "Latency", "Speedup vs vanilla", "FLOPs vs vanilla"},
		Notes:  "speedup grows as the window shrinks; the paper's 2.92× sits at small windows",
	}
	// Each window depth is an independent grid point with its own memoising
	// scheduler (identical schedules, so identical numbers to a shared one).
	windows := []int{cfg.Layers, 8, 4, 2, 1}
	rows := make([][]string, len(windows))
	parallelFor(len(windows), func(wi int) {
		w := windows[wi]
		spec := hwsim.VanillaIteration(cfg, batch, seq).WithCompression(hwsim.LayerCompression{Bits: 4, Sparsity: 0.5})
		avg := hwsim.CycleCost(dev, hwsim.NewSearchedScheduler(), spec, cfg.Layers, hwsim.SlidingWindow(w))
		rows[wi] = []string{fmt.Sprintf("%d/%d", w, cfg.Layers),
			fmtMS(avg.TotalSec),
			fmt.Sprintf("%.2fx", vanilla.TotalSec/avg.TotalSec),
			fmt.Sprintf("%.2f", avg.FLOPs/vanilla.FLOPs)}
	})
	for _, row := range rows {
		r.AddRow(row...)
	}
	return r
}

// ExperimentF5 regenerates Figure F5: the schedule-space latency
// distribution for representative kernels of the compressed workload.
func ExperimentF5(ctx context.Context) *Report {
	dev := hwsim.EdgeGPU()
	cfg := EdgeModelConfig()
	rows := 4 * 256
	kernels := []struct {
		name string
		g    hwsim.GEMM
	}{
		{"attn proj 4b@50%", hwsim.GEMM{M: rows, K: cfg.Dim, N: cfg.Dim, WeightBits: 4, WeightSparsity: 0.5}},
		{"mlp up 4b@50%", hwsim.GEMM{M: rows, K: cfg.Dim, N: cfg.Hidden, WeightBits: 4, WeightSparsity: 0.5}},
		{"mlp down 2b@75%", hwsim.GEMM{M: rows, K: cfg.Hidden, N: cfg.Dim, WeightBits: 2, WeightSparsity: 0.75}},
		{"head fp16", hwsim.GEMM{M: rows, K: cfg.Dim, N: cfg.Vocab, WeightBits: 16}},
	}
	r := &Report{
		ID:     "F5",
		Title:  "Schedule-space exploration per kernel (all fitting schedules)",
		Header: []string{"Kernel", "Space", "Best", "Median", "Worst", "Best util", "Best schedule", "SA gap"},
		Notes:  "searching the schedule space is what turns compression into wall-clock speedup; median schedules leave 2-10× on the table",
	}
	// Kernels are independent grid points (AnalyzeSpace and the annealer
	// keep all state local, and the annealer seeds its own RNG).
	cells := make([][]string, len(kernels))
	parallelFor(len(kernels), func(ki int) {
		k := kernels[ki]
		st := hwsim.AnalyzeSpace(dev, k.g)
		_, sa := hwsim.SearchAnnealed(dev, k.g, 1, 1500)
		cells[ki] = []string{k.name,
			fmt.Sprintf("%d", st.Count),
			fmtMS(st.BestSec), fmtMS(st.MedianSec), fmtMS(st.WorstSec),
			fmt.Sprintf("%.1f%%", st.BestUtil*100),
			st.BestSchedule.String(),
			fmt.Sprintf("%.2fx", sa.TotalSec/st.BestSec),
		}
	})
	for _, row := range cells {
		r.AddRow(row...)
	}
	return r
}

// ExperimentF6 is an extension beyond the paper: the same vanilla vs
// Edge-LLM iteration swept across a catalog of edge devices, with modeled
// energy. It checks that the speedup and energy savings are not artifacts
// of one device's balance point.
func ExperimentF6(ctx context.Context) *Report {
	cfg := EdgeModelConfig()
	const batch, seq = 4, 256
	espec := hwsim.DefaultEnergy()

	r := &Report{
		ID:     "F6",
		Title:  "Extension: device sweep — per-iteration latency and energy",
		Header: []string{"Device", "Vanilla", "Edge-LLM", "Speedup", "Vanilla J", "Edge-LLM J", "Energy saving"},
		Notes:  "extension experiment (not in the paper): the win persists across device balance points",
	}
	// Device catalog entries are independent grid points; each already owns
	// its scheduler.
	devices := hwsim.DeviceCatalog()
	rows := make([][]string, len(devices))
	parallelFor(len(devices), func(di int) {
		dev := devices[di]
		sched := hwsim.NewSearchedScheduler()
		vanilla := hwsim.IterationCost(dev, sched, hwsim.VanillaIteration(cfg, batch, seq))

		spec := hwsim.VanillaIteration(cfg, batch, seq).WithCompression(hwsim.LayerCompression{Bits: 4, Sparsity: 0.5})
		edge := hwsim.CycleCost(dev, sched, spec, cfg.Layers, hwsim.SlidingWindow(2))
		vJ := vanilla.EnergyJoules(dev, espec)
		eJ := edge.EnergyJoules(dev, espec)
		rows[di] = []string{dev.Name,
			fmtMS(vanilla.TotalSec), fmtMS(edge.TotalSec),
			fmt.Sprintf("%.2fx", vanilla.TotalSec/edge.TotalSec),
			fmt.Sprintf("%.2f J", vJ), fmt.Sprintf("%.2f J", eJ),
			fmt.Sprintf("%.2fx", vJ/eJ)}
	})
	for _, row := range rows {
		r.AddRow(row...)
	}
	return r
}

// ExperimentF7 is an extension beyond the paper: per-iteration speedup as
// a function of the token count per iteration (sequence length at batch
// 1). Weight traffic amortises over tokens, so the compressed workload's
// advantage is largest in the few-token regime — short-context on-device
// adaptation — and settles to the compute-path ratio as kernels become
// compute-bound.
func ExperimentF7(ctx context.Context) *Report {
	dev := hwsim.EdgeGPU()
	cfg := EdgeModelConfig()
	const batch = 1

	r := &Report{
		ID:     "F7",
		Title:  "Extension: speedup vs tokens per iteration (window 2, LUC 4b@50%)",
		Header: []string{"Tokens", "Vanilla", "Edge-LLM", "Speedup", "Edge-LLM util"},
		Notes:  "extension: the compression win grows as tokens shrink (weight traffic dominates), the regime on-device adaptation actually runs in",
	}
	// Sequence lengths are independent grid points; each owns a memoising
	// scheduler (per-point caches see the same searches a shared one would).
	seqs := []int{16, 32, 64, 128, 256, 512}
	rows := make([][]string, len(seqs))
	parallelFor(len(seqs), func(si int) {
		seq := seqs[si]
		sched := hwsim.NewSearchedScheduler()
		vanilla := hwsim.IterationCost(dev, sched, hwsim.VanillaIteration(cfg, batch, seq))
		spec := hwsim.VanillaIteration(cfg, batch, seq).WithCompression(hwsim.LayerCompression{Bits: 4, Sparsity: 0.5})
		edge := hwsim.CycleCost(dev, sched, spec, cfg.Layers, hwsim.SlidingWindow(2))
		rows[si] = []string{fmt.Sprintf("%d", batch*seq),
			fmtMS(vanilla.TotalSec), fmtMS(edge.TotalSec),
			fmt.Sprintf("%.2fx", vanilla.TotalSec/edge.TotalSec),
			fmt.Sprintf("%.1f%%", edge.IdealSec/edge.TotalSec*100)}
	})
	for _, row := range rows {
		r.AddRow(row...)
	}
	return r
}
