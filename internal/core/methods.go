package core

import (
	"context"

	"edgellm/internal/adapt"
	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/govern"
	"edgellm/internal/hwsim"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// methodSpan opens the telemetry span for one method run, parented to the
// span carried by ctx (the experiment or grid-point span). Methods fan
// out concurrently, so each takes its own trace track.
func methodSpan(ctx context.Context, name string) obsv.Span {
	return obsv.SpanFromContext(ctx).ChildTrack("method", obsv.L("name", name))
}

// Task bundles the evaluation workloads shared by every tuning method,
// mirroring the paper's protocol: a *pretraining* corpus the shared base
// model is trained on once, an *adaptation* corpus from a different
// distribution that every method tunes toward, a held-out stream for
// perplexity, and an MCQ dataset (train split tuned on, test split
// evaluated).
type Task struct {
	// Pretrain is the source-domain corpus (Markov chain A).
	Pretrain *data.Corpus
	// SourceEval extends chain A; source-domain evaluation (e.g. the
	// damage a compression policy does to the pretrained base) uses the
	// tail beyond Pretrain.
	SourceEval *data.Corpus
	// Train is the target-domain adaptation corpus (Markov chain B).
	Train *data.Corpus
	// Eval extends chain B; evaluation uses the tail beyond Train.
	Eval *data.Corpus
	MCQ  *data.MCQDataset

	// Base holds the pretrained parameter snapshot every method adapts
	// from; populated by EnsureBase. Nil means methods start from random
	// initialisation.
	Base []*tensor.Tensor
}

// NewTask builds the standard synthetic task suite for a model vocabulary.
func NewTask(seed int64, vocab int) Task {
	// Entities+relations+query must fit the model vocabulary.
	entities := vocab - 6
	const relations = 5
	return Task{
		Pretrain:   data.MarkovCorpus(seed, vocab, 40000, 3),
		SourceEval: data.MarkovCorpus(seed, vocab, 48000, 3),
		Train:      data.MarkovCorpus(seed+10, vocab, 40000, 3),
		Eval:       data.MarkovCorpus(seed+10, vocab, 48000, 3), // same chain as Train, longer; eval uses the tail
		MCQ:        data.NewMCQDataset(seed+1, entities, relations, 4, 96, 48),
	}
}

// EnsureBase pretrains the shared base model (full fine-tuning on the
// source corpus) once and stores its parameter snapshot. Idempotent.
// ctx bounds the pretraining loop (stall watchdog / suite deadline).
func (t *Task) EnsureBase(ctx context.Context, cfg Config, iters int) {
	if t.Base != nil || iters <= 0 {
		return
	}
	m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	rng := tensor.NewRNG(cfg.Seed + 100)
	tuneLoop(ctx, cfg, govern.Plan{}, m, m, m.Logits, iters, func() ([][]int, []int) {
		return t.Pretrain.Batch(rng, cfg.Batch, cfg.Seq)
	})
	t.Base = snapshotParams(m)
}

// ApplyBase copies the pretrained snapshot into a freshly built model.
func (t Task) ApplyBase(m *nn.Model) {
	if t.Base != nil {
		restoreParams(m, t.Base)
	}
}

// EvalTail returns held-out sequential batches from the tail of the eval
// corpus (beyond the training stream's length).
func (t Task) EvalTail(batch, seq, maxBatches int) ([][][]int, [][]int) {
	tail := &data.Corpus{Tokens: t.Eval.Tokens[len(t.Train.Tokens):], Vocab: t.Eval.Vocab}
	return tail.SequentialBatches(batch, seq, maxBatches)
}

// SourceEvalTail returns held-out sequential batches from the source
// domain, beyond the pretraining stream.
func (t Task) SourceEvalTail(batch, seq, maxBatches int) ([][][]int, [][]int) {
	tail := &data.Corpus{Tokens: t.SourceEval.Tokens[len(t.Pretrain.Tokens):], Vocab: t.SourceEval.Vocab}
	return tail.SequentialBatches(batch, seq, maxBatches)
}

// MethodResult is one row of Table T1.
type MethodResult struct {
	Name string
	// PPL is held-out language-model perplexity after tuning.
	PPL float64
	// MCQAcc is multiple-choice accuracy after tuning on the MCQ split.
	MCQAcc float64
	// TrainableParams is the per-iteration trainable element count.
	TrainableParams int64
	// Memory is the analytic per-iteration tuning footprint.
	Memory train.MemoryBreakdown
	// IterCost is the modeled per-iteration latency on the edge device.
	IterCost hwsim.Cost
}

// RunOpts sizes a method run.
type RunOpts struct {
	// Iters is the number of LM tuning iterations.
	Iters int
	// MCQIters is the number of MCQ tuning iterations (0 skips MCQ).
	MCQIters int
	// EvalBatches bounds perplexity evaluation work.
	EvalBatches int
	// PretrainIters sizes the shared base-model pretraining (0 = adapt
	// from random initialisation).
	PretrainIters int
}

// DefaultRunOpts returns the sizes used by the recorded experiments.
func DefaultRunOpts() RunOpts {
	return RunOpts{Iters: 300, MCQIters: 300, EvalBatches: 10, PretrainIters: 700}
}

// baseline describes one of Table T1's comparison methods once. runBaseline
// is the only code that admits, trains, evaluates and prices one.
type baseline struct {
	// label is the telemetry span name and the governor's task label; name
	// is the table row.
	label, name string
	// plan is the un-degraded resource plan; its non-zero knobs are the
	// ladder rungs the governor may take for this method.
	plan govern.Plan
	// build returns the module the optimizer updates on a fresh copy of the
	// base model under the admitted plan, and the method's forward function.
	// tuneLoop makes the module trainable for each step and nothing else.
	build func(m *nn.Model, pl govern.Plan) (nn.Module, func([][]int) *ag.Value)
	// spec turns the full-fine-tuning memory spec (every parameter
	// trainable, full-depth tape) into this method's under a plan.
	spec func(s train.MemorySpec, pl govern.Plan) train.MemorySpec
	// sideActs, when non-nil, is activation memory held outside the
	// backbone tape (LST's side network).
	sideActs func(cfg Config, pl govern.Plan) int64
	// cost is the modeled latency of one iteration; cfg.Batch is already
	// the admitted batch.
	cost func(cfg Config, pl govern.Plan) hwsim.Cost
}

// memorySpec is the method's analytic accounting under a plan. It needs no
// built model, so the governor prices a method before constructing it.
func (b baseline) memorySpec(cfg Config, pl govern.Plan) train.MemorySpec {
	return b.spec(train.VanillaSpec(cfg.Model, pl.Batch, cfg.Seq), pl)
}

// memory is the method's one memory function: the governor admits against
// its total and the table's memory column reports it, so the two cannot
// disagree.
func (b baseline) memory(cfg Config, pl govern.Plan) train.MemoryBreakdown {
	mem := train.EstimateMemory(b.memorySpec(cfg, pl))
	if b.sideActs != nil {
		mem.Activations = b.sideActs(cfg, pl)
	}
	return mem
}

// tuneLoop is the one baseline training loop: iters optimizer steps on mod
// over batches drawn from next, with cross-entropy at forward's output —
// or, when the plan is on checkpointed recompute, at m's final head through
// train.SegmentedBackward over the whole stack (identical gradients; only
// tape residency changes). mod is trainable only inside a step, so m and
// mod leave frozen and forward records no tape afterwards. It beats the
// stall watchdog once per step and stops at the iteration boundary when ctx
// is cancelled.
func tuneLoop(ctx context.Context, cfg Config, pl govern.Plan, m *nn.Model, mod nn.Module,
	forward func([][]int) *ag.Value, iters int, next func() ([][]int, []int)) {
	tr := train.NewTrainer(train.NewAdamW(cfg.WeightDecay), cfg.LR, cfg.ClipNorm)
	tr.Heartbeat = govern.HeartbeatFunc(ctx)
	m.SetAllTrainable(false)
	nn.SetTrainable(mod, false)
	f := nn.NewForward(m) // the recompute path's no-grad forward
	for i := 0; i < iters && ctx.Err() == nil; i++ {
		inputs, targets := next()
		if pl.Recompute {
			head := func(h *ag.Value) *ag.Value {
				return ag.CrossEntropy(m.LMHead.Forward(m.Norm.Forward(h)), targets, -1)
			}
			tr.ApplyGrads(mod, train.SegmentedBackward(f, inputs, 0, len(m.Blocks)-1, pl.Segments, head, mod))
			continue
		}
		nn.SetTrainable(mod, true)
		tr.Step(mod, ag.CrossEntropy(forward(inputs), targets, -1))
		nn.SetTrainable(mod, false)
	}
}

// evalMethod fills a table row's quality columns. tune(false) adapts a
// fresh copy of the base on the target LM stream, tune(true) another on the
// MCQ training split; each returns the tuned copy's inference function.
func evalMethod(name string, cfg Config, task Task, opts RunOpts, tune func(mcq bool) func([][]int) *ag.Value) MethodResult {
	res := MethodResult{Name: name}
	batches, targets := task.EvalTail(cfg.Batch, cfg.Seq, opts.EvalBatches)
	res.PPL = train.EvalPerplexityWith(tune(false), batches, targets)
	if opts.MCQIters > 0 {
		res.MCQAcc = train.MCQAccuracy(tune(true), task.MCQ.Test)
	}
	return res
}

// runBaseline runs one baseline end to end: admission against the active
// governor (if any), the LM run, the MCQ run, evaluation, and accounting.
func runBaseline(ctx context.Context, b baseline, cfg Config, task Task, opts RunOpts) MethodResult {
	defer methodSpan(ctx, b.label).End()
	pl := b.plan
	if gov := activeGovernor(); gov.Enabled() {
		// The task label is unique to the method and its configuration.
		pl = gov.Admit(b.label+"@"+obsv.HashConfig(cfg), "admission", pl,
			func(q govern.Plan) int64 { return b.memory(cfg, q).Total() })
	}
	cfg.Batch = pl.Batch

	res := evalMethod(b.name, cfg, task, opts, func(mcq bool) func([][]int) *ag.Value {
		m := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
		task.ApplyBase(m)
		mod, forward := b.build(m, pl)
		rng, iters := tensor.NewRNG(cfg.Seed+1), opts.Iters
		next := func() ([][]int, []int) { return task.Train.Batch(rng, cfg.Batch, cfg.Seq) }
		if mcq {
			rng, iters = tensor.NewRNG(cfg.Seed+2), opts.MCQIters
			next = func() ([][]int, []int) { return task.MCQ.MCQBatch(rng, cfg.Batch, -1) }
		}
		tuneLoop(ctx, cfg, pl, m, mod, forward, iters, next)
		return forward
	})
	res.TrainableParams = b.memorySpec(cfg, pl).TrainableElems
	res.Memory = b.memory(cfg, pl)
	res.IterCost = b.cost(cfg, pl)
	return res
}

// addForwardStack adds one uncompressed forward pass over every block to c.
func addForwardStack(c hwsim.Cost, cfg Config, sched hwsim.Scheduler) hwsim.Cost {
	for i := 0; i < cfg.Model.Layers; i++ {
		c = c.Add(hwsim.BlockForwardCost(cfg.Device, sched, cfg.Model, cfg.Batch, cfg.Seq, hwsim.Uncompressed()))
	}
	return c
}

// fullFT describes full fine-tuning: every parameter trainable, loss at
// the final head, full-depth backprop — plain, or segment-recomputed when
// the plan says so (a caller's choice for grad-ckpt, a governor rung for
// vanilla). Its memory and latency read the same plan: recompute tapes one
// segment and pays one extra forward over the stack.
func fullFT(label, name string, plan govern.Plan) baseline {
	return baseline{
		label: label, name: name, plan: plan,
		build: func(m *nn.Model, _ govern.Plan) (nn.Module, func([][]int) *ag.Value) {
			return m, m.Logits
		},
		spec: func(s train.MemorySpec, pl govern.Plan) train.MemorySpec {
			return train.CheckpointedSpec(s, pl.Segments)
		},
		cost: func(cfg Config, pl govern.Plan) hwsim.Cost {
			sched := hwsim.NewSearchedScheduler()
			iter := hwsim.IterationCost(cfg.Device, sched, hwsim.VanillaIteration(cfg.Model, cfg.Batch, cfg.Seq))
			if pl.Recompute {
				iter = addForwardStack(iter, cfg, sched)
			}
			return iter
		},
	}
}

// RunVanillaFT is the upper-bound baseline: full fine-tuning of the
// uncompressed model, loss at the final head, full-depth backprop. Under a
// governor it can degrade by switching to checkpointed recompute (segment
// doubling up to full depth), priced as grad-ckpt is, and then halving
// batch.
func RunVanillaFT(ctx context.Context, cfg Config, task Task, opts RunOpts) MethodResult {
	return runBaseline(ctx, vanillaFT(cfg), cfg, task, opts)
}

func vanillaFT(cfg Config) baseline {
	return fullFT("vanilla-ft", "Vanilla FT", govern.Plan{MaxSegments: cfg.Model.Layers, Batch: cfg.Batch})
}

// RunGradCheckpoint is the activation-checkpointing baseline: full
// fine-tuning with segment recompute, which cuts activation memory to one
// segment's tape at the cost of a second forward pass per iteration.
// Already on recompute, the governor can only double segments (toward one
// block per segment) and then halve batch.
func RunGradCheckpoint(ctx context.Context, cfg Config, task Task, opts RunOpts, segments int) MethodResult {
	return runBaseline(ctx, gradCheckpoint(cfg, segments), cfg, task, opts)
}

func gradCheckpoint(cfg Config, segments int) baseline {
	return fullFT("grad-ckpt", "Grad-ckpt FT",
		govern.Plan{Recompute: true, Segments: segments, MaxSegments: cfg.Model.Layers, Batch: cfg.Batch})
}

// RunLoRA is the PEFT baseline: frozen fp16 backbone with rank-r adapters
// on every block linear, full-depth backprop through frozen weights. Its
// only degradable knob is batch: the tape must span full depth and the
// adapters are already tiny.
func RunLoRA(ctx context.Context, cfg Config, task Task, opts RunOpts, rank int) MethodResult {
	return runBaseline(ctx, loraBaseline(cfg, rank), cfg, task, opts)
}

func loraBaseline(cfg Config, rank int) baseline {
	return baseline{
		label: "lora", name: "LoRA", plan: govern.Plan{Batch: cfg.Batch},
		build: func(m *nn.Model, _ govern.Plan) (nn.Module, func([][]int) *ag.Value) {
			return adapt.InstallLoRA(m, tensor.NewRNG(cfg.Seed+3), rank, 2*float32(rank)), m.Logits
		},
		// Grads and optimizer state only for the adapters; the full-depth
		// tape is retained.
		spec: func(s train.MemorySpec, _ govern.Plan) train.MemorySpec {
			s.TrainableElems = adapt.LoRAElems(s.Cfg, rank)
			return s
		},
		cost: loraIterationCost,
	}
}

// loraIterationCost models a LoRA iteration: full forward, full-depth dX
// backward, no block dW GEMMs (adapter dW GEMMs are negligible at low
// rank).
func loraIterationCost(cfg Config, _ govern.Plan) hwsim.Cost {
	sched := hwsim.NewSearchedScheduler()
	full := hwsim.IterationCost(cfg.Device, sched, hwsim.VanillaIteration(cfg.Model, cfg.Batch, cfg.Seq))
	// The backward dW GEMMs are ~half the block backward work; subtract
	// them. Forward + head costs are shape-identical to vanilla.
	var blocksBwd hwsim.Cost
	for i := 0; i < cfg.Model.Layers; i++ {
		blocksBwd = blocksBwd.Add(hwsim.BlockBackwardCost(cfg.Device, sched, cfg.Model, cfg.Batch, cfg.Seq, hwsim.Uncompressed()))
	}
	return full.Add(blocksBwd.Scale(-0.5))
}

// RunLST is the Ladder Side Tuning baseline: a frozen backbone with a
// narrow trainable side network (see adapt.LST). Backprop never enters the
// backbone, so activation memory is the side network's own tape plus the
// (graph-free) backbone forward; batch is the only governor knob.
func RunLST(ctx context.Context, cfg Config, task Task, opts RunOpts, reduction int) MethodResult {
	return runBaseline(ctx, lstBaseline(cfg, reduction), cfg, task, opts)
}

func lstBaseline(cfg Config, reduction int) baseline {
	sideDim := adapt.LSTSideDim(cfg.Model, reduction)
	return baseline{
		label: "lst", name: "LST", plan: govern.Plan{Batch: cfg.Batch},
		build: func(m *nn.Model, _ govern.Plan) (nn.Module, func([][]int) *ag.Value) {
			side := adapt.NewLST(m, tensor.NewRNG(cfg.Seed+4), reduction)
			return side, side.Logits
		},
		// Full fp32 weights, grads/opt for the side net only, no backbone
		// tape: the tape covers side activations (~5 side-width tensors per
		// rung).
		spec: func(s train.MemorySpec, _ govern.Plan) train.MemorySpec {
			s.TapeBlocks = 0
			s.TrainableElems = adapt.LSTElems(s.Cfg, reduction)
			return s
		},
		sideActs: func(cfg Config, pl govern.Plan) int64 {
			return 4 * int64(pl.Batch) * int64(cfg.Seq) * int64(sideDim) * 5 * int64(cfg.Model.Layers)
		},
		// Full frozen forward, plus a side backward that is negligible next
		// to the backbone: we charge the side head's forward + dX + dW (same
		// shape class) at the reduced width.
		cost: func(cfg Config, _ govern.Plan) hwsim.Cost {
			sched := hwsim.NewSearchedScheduler()
			iter := addForwardStack(hwsim.Cost{}, cfg, sched)
			_, hc := sched.Schedule(cfg.Device, hwsim.GEMM{M: cfg.Batch * cfg.Seq, K: sideDim, N: cfg.Model.Vocab, WeightBits: 16})
			return iter.Add(hc).Add(hc).Add(hc)
		},
	}
}

// RunLayerFreeze is the "last-k" baseline: only the top k blocks, final
// norm, and head are tuned; backprop naturally stops at the frozen
// boundary. The tuned span carries k in the plan's window slot: the
// governor can freeze more layers, then halve batch.
func RunLayerFreeze(ctx context.Context, cfg Config, task Task, opts RunOpts, k int) MethodResult {
	return runBaseline(ctx, layerFreeze(cfg, k), cfg, task, opts)
}

func layerFreeze(cfg Config, k int) baseline {
	return baseline{
		label: "layer-freeze", name: "Layer-freeze",
		plan: govern.Plan{WindowSize: k, MinWindow: 1, Batch: cfg.Batch},
		build: func(m *nn.Model, pl govern.Plan) (nn.Module, func([][]int) *ag.Value) {
			return topK(m, pl.WindowSize), m.Logits
		},
		spec: func(s train.MemorySpec, pl govern.Plan) train.MemorySpec {
			s.TapeBlocks = pl.WindowSize
			s.TrainableElems = train.WindowTrainableElems(s.Cfg, pl.WindowSize)
			return s
		},
		cost: func(cfg Config, pl govern.Plan) hwsim.Cost {
			iter := hwsim.VanillaIteration(cfg.Model, cfg.Batch, cfg.Seq)
			iter.WindowLo = cfg.Model.Layers - pl.WindowSize
			return hwsim.IterationCost(cfg.Device, hwsim.NewSearchedScheduler(), iter)
		},
	}
}

// paramModule adapts a parameter list to nn.Module.
type paramModule []nn.NamedParam

// Params implements nn.Module.
func (p paramModule) Params() []nn.NamedParam { return p }

// topK is the layer-freeze module: the top k blocks, final norm, and head.
func topK(m *nn.Model, k int) paramModule {
	var ps []nn.NamedParam
	for i := len(m.Blocks) - k; i < len(m.Blocks); i++ {
		ps = append(ps, m.Blocks[i].Params()...)
	}
	ps = append(ps, m.Norm.Params()...)
	ps = append(ps, m.LMHead.Params()...)
	return ps
}

// calibSequences returns the LUC probe's calibration set: the first two
// sequential batches of c, flattened into one list of sequences.
func calibSequences(c *data.Corpus, batch, seq int) [][]int {
	batches, _ := c.SequentialBatches(batch, seq, 2)
	var flat [][]int
	for _, b := range batches {
		flat = append(flat, b...)
	}
	return flat
}

// Adapt runs the Edge-LLM recipe on the task and returns the adapted
// pipeline: build it for cfg on the pretrained base, LUC-compress the
// backbone with the probe calibrated on calib, run the caller's tuning
// stage, and calibrate the voter on the held-out target tail. setup, when
// non-nil, sees the pipeline while it is still the uncompressed base — the
// place to attach a trace span or context, or to measure "before".
func (t Task) Adapt(cfg Config, calib *data.Corpus, setup, tune func(*Pipeline)) (*Pipeline, error) {
	p, err := New(cfg)
	if err != nil {
		return nil, err
	}
	t.ApplyBase(p.Model)
	if setup != nil {
		setup(p)
	}
	if err := p.Compress(calibSequences(calib, cfg.Batch, cfg.Seq)); err != nil {
		return nil, err
	}
	tune(p)
	p.FinishTuning(t.EvalTail(cfg.Batch, cfg.Seq, 4))
	return p, nil
}

// mustAdapt is Adapt for the experiment drivers, whose configurations are
// fixed: a recipe error is a bug and takes the experiment attempt down.
func (t Task) mustAdapt(cfg Config, calib *data.Corpus, setup, tune func(*Pipeline)) *Pipeline {
	p, err := t.Adapt(cfg, calib, setup, tune)
	if err != nil {
		panic(err)
	}
	return p
}

// RunEdgeLLM runs the full Edge-LLM pipeline: LUC compression, adaptive
// layer tuning, calibrated voting inference.
func RunEdgeLLM(ctx context.Context, cfg Config, task Task, opts RunOpts) MethodResult {
	sp := methodSpan(ctx, "edge-llm")
	defer sp.End()
	var lm *Pipeline // the LM run's pipeline, which the accounting describes
	res := evalMethod("Edge-LLM", cfg, task, opts, func(mcq bool) func([][]int) *ag.Value {
		p := task.mustAdapt(cfg, task.Train, func(p *Pipeline) {
			p.Trace, p.Ctx = sp, ctx
			p.Trainer.Heartbeat = govern.HeartbeatFunc(ctx)
		}, func(p *Pipeline) {
			if mcq {
				p.TuneMCQ(task.MCQ, opts.MCQIters)
			} else {
				p.Tune(task.Train, opts.Iters)
			}
		})
		if !mcq {
			lm = p
		}
		return p.Forward
	})
	res.TrainableParams = lm.MemorySpec().TrainableElems
	res.Memory = lm.Memory()
	res.IterCost = lm.IterationCost(hwsim.NewSearchedScheduler())
	return res
}
