// Package core assembles the Edge-LLM framework from its substrates: it
// exposes the end-to-end pipeline (LUC compression → adaptive layer tuning
// → voting inference), the baseline tuning methods it is evaluated against,
// and the experiment drivers that regenerate every table and figure in
// EXPERIMENTS.md.
package core

import (
	"context"
	"fmt"
	"time"

	"edgellm/internal/adapt"
	"edgellm/internal/data"
	"edgellm/internal/hwsim"
	"edgellm/internal/luc"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
	"edgellm/internal/train"

	ag "edgellm/internal/autograd"
)

// Config collects every knob of the Edge-LLM pipeline.
type Config struct {
	// Model is the transformer configuration; ExitHeads is forced on.
	Model nn.Config
	// Seed drives all randomness (init, batching, search tie-breaks).
	Seed int64

	// BudgetBits is LUC's average effective-bits target for block weights.
	BudgetBits float64
	// Candidates is the LUC search grid; nil selects DefaultCandidates.
	Candidates []luc.Candidate
	// ProbeMetric selects the sensitivity measure.
	ProbeMetric luc.Metric
	// UseDP selects the DP policy search instead of greedy.
	UseDP bool
	// RefineRounds, when > 0, post-processes the searched policy with
	// joint-KL coordinate descent (luc.RefinePolicy), correcting the
	// probe's per-layer additivity blind spot at the cost of extra
	// calibration forwards.
	RefineRounds int

	// WindowSize bounds backpropagation depth during adaptive tuning.
	WindowSize int
	// Strategy schedules the tuned window across iterations.
	Strategy adapt.WindowStrategy
	// VoteMode selects how exit heads are combined at inference.
	VoteMode adapt.VotingMode

	// LR, ClipNorm, WeightDecay configure the optimizer (AdamW).
	LR          float32
	ClipNorm    float64
	WeightDecay float32

	// Batch and Seq shape every tuning batch.
	Batch, Seq int

	// Device is the simulated edge GPU for latency reporting.
	Device hwsim.Device
}

// DefaultConfig returns the tiny-model configuration used by the
// experiments: big enough to show every effect, small enough to train in
// seconds on a laptop CPU.
func DefaultConfig() Config {
	return Config{
		Model: nn.Config{
			Vocab: 32, Dim: 32, Heads: 4, Layers: 6, Hidden: 64,
			MaxSeq: 32, ExitHeads: true,
		},
		Seed:        1,
		BudgetBits:  4,
		ProbeMetric: luc.MetricOutputKL,
		UseDP:       true,
		WindowSize:  2,
		Strategy:    adapt.StrategySliding,
		VoteMode:    adapt.VoteCalibrated,
		LR:          0.01,
		ClipNorm:    1.0,
		WeightDecay: 0.01,
		Batch:       4,
		Seq:         24,
		Device:      hwsim.EdgeGPU(),
	}
}

// Pipeline is a live Edge-LLM adaptation session.
type Pipeline struct {
	Cfg   Config
	Model *nn.Model
	// Info is populated by Compress.
	Info luc.CompressionInfo
	// Policy is the LUC policy chosen by Compress.
	Policy luc.Policy
	// Sens is the probed sensitivity matrix (kept for the sensitivity-
	// guided window strategy and for Figure F3).
	Sens luc.Sensitivity

	Tuner   *adapt.Tuner
	Voter   *adapt.Voter
	Trainer *train.Trainer

	// Trace, when set, parents every pipeline-stage span (compress, tune,
	// vote) so one experiment's whole call tree nests under a single span
	// in the Chrome trace. Zero value roots the stages at the global
	// recorder; inert when observability is disabled.
	Trace obsv.Span

	// Ctx, when set, bounds the tuning loops: Tune and TuneMCQ stop at the
	// current iteration when it is cancelled (by the stall watchdog or the
	// suite deadline). Nil means run to completion.
	Ctx context.Context

	rng        *tensor.RNG
	candidates []luc.Candidate
	compressed bool
	// gstate is non-nil when a resource governor admitted this pipeline;
	// see governed.go.
	gstate *governedState
}

// New builds the model and pipeline from cfg.
func New(cfg Config) (*Pipeline, error) {
	cfg.Model.ExitHeads = true
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if cfg.WindowSize < 1 || cfg.WindowSize > cfg.Model.Layers {
		return nil, fmt.Errorf("core: window size %d out of [1,%d]", cfg.WindowSize, cfg.Model.Layers)
	}
	cands := cfg.Candidates
	if cands == nil {
		cands = luc.DefaultCandidates()
	}
	// Under an active resource governor the config is admitted against the
	// memory budget first; any degradation (smaller window, tighter bits,
	// recompute, smaller batch) lands in cfg before anything is built.
	cfg, gstate := governPipeline(cfg, cands)
	p := &Pipeline{
		Cfg:        cfg,
		Model:      nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed)),
		rng:        tensor.NewRNG(cfg.Seed + 1),
		candidates: cands,
		gstate:     gstate,
	}
	p.Trainer = train.NewTrainer(train.NewAdamW(cfg.WeightDecay), cfg.LR, cfg.ClipNorm)
	return p, nil
}

// Candidates returns the LUC candidate grid in use.
func (p *Pipeline) Candidates() []luc.Candidate { return p.candidates }

// Compress runs the LUC stage: probe per-layer sensitivity, search a
// policy under the bit budget, and apply it to the backbone in place.
// calib supplies calibration sequences for the output-KL probe metric.
func (p *Pipeline) Compress(calib [][]int) error {
	if p.compressed {
		return fmt.Errorf("core: model already compressed")
	}
	sp := p.Trace.Child("pipeline.compress")
	defer func() { sp.EndWith(map[string]float64{"avg_bits": p.Info.AvgEffectiveBits}) }()
	opts := luc.ProbeOptions{Metric: p.Cfg.ProbeMetric, Calib: calib, Trace: sp}
	p.Sens = luc.Probe(p.Model, p.candidates, opts)
	if p.Cfg.UseDP {
		p.Policy = luc.SearchDP(p.Sens, p.candidates, p.Cfg.BudgetBits)
	} else {
		p.Policy = luc.SearchGreedy(p.Sens, p.candidates, p.Cfg.BudgetBits)
	}
	if p.Cfg.RefineRounds > 0 {
		if len(calib) == 0 {
			return fmt.Errorf("core: RefineRounds requires calibration data")
		}
		p.Policy = luc.RefinePolicy(p.Model, p.Policy, p.candidates, p.Cfg.BudgetBits, calib, p.Cfg.RefineRounds)
	}
	p.Info = luc.Apply(p.Model, p.Policy, p.candidates)
	p.compressed = true
	return nil
}

// importanceFromSens condenses the sensitivity matrix into a per-layer
// importance weight (cost of the layer's assigned candidate).
func (p *Pipeline) importanceFromSens() []float64 {
	imp := make([]float64, len(p.Sens))
	for i := range p.Sens {
		imp[i] = p.Sens[i][p.Policy.Choice[i]]
	}
	return imp
}

// tunerConfig is the window schedule the pipeline tunes under.
func (p *Pipeline) tunerConfig() (adapt.TunerConfig, error) {
	cfg := adapt.TunerConfig{WindowSize: p.Cfg.WindowSize, Strategy: p.Cfg.Strategy}
	if p.gstate != nil {
		cfg.Recompute = p.gstate.plan.Recompute
	}
	if p.Cfg.Strategy == adapt.StrategySensitivity {
		if p.Sens == nil {
			return cfg, fmt.Errorf("core: sensitivity strategy requires Compress first")
		}
		cfg.Importance = p.importanceFromSens()
	}
	return cfg, nil
}

// StartTuning prepares the adaptive tuner; call after Compress (tuning an
// uncompressed model is allowed for ablations).
func (p *Pipeline) StartTuning() error {
	cfg, err := p.tunerConfig()
	if err != nil {
		return err
	}
	t, err := adapt.NewTuner(p.Model, cfg)
	if err != nil {
		return err
	}
	p.Tuner = t
	return nil
}

// TuneStep performs one adaptive tuning iteration on a corpus batch and
// returns the loss at the window-top exit.
func (p *Pipeline) TuneStep(c *data.Corpus) float64 { return p.step(c.Batch) }

// step is one adaptive tuning iteration on a batch drawn from draw. Under a
// governor the step is re-admitted first, so the draw sees any
// batch-halving rung.
func (p *Pipeline) step(draw func(g *tensor.RNG, batch, seq int) ([][]int, []int)) float64 {
	p.preStepGovern()
	inputs, targets := draw(p.rng, p.Cfg.Batch, p.Cfg.Seq)
	loss, _, _ := p.Tuner.Step(p.Trainer, inputs, targets)
	return loss
}

// Tune runs iters adaptive tuning iterations and returns the loss curve
// (truncated at the cancellation point when Ctx is cancelled mid-loop).
func (p *Pipeline) Tune(c *data.Corpus, iters int) []float64 {
	return p.tune("pipeline.tune", iters, c.Batch)
}

// TuneMCQ runs iters adaptive tuning iterations on MCQ training sequences.
func (p *Pipeline) TuneMCQ(d *data.MCQDataset, iters int) []float64 {
	return p.tune("pipeline.tune_mcq", iters, func(g *tensor.RNG, batch, _ int) ([][]int, []int) {
		return d.MCQBatch(g, batch, -1)
	})
}

// tune is the pipeline's one tuning loop; it stops at the next iteration
// boundary once Ctx (if any) is cancelled.
func (p *Pipeline) tune(span string, iters int, draw func(g *tensor.RNG, batch, seq int) ([][]int, []int)) []float64 {
	if p.Tuner == nil {
		if err := p.StartTuning(); err != nil {
			panic(err)
		}
	}
	sp := p.tuneSpan(span, iters)
	losses := make([]float64, 0, iters)
	for i := 0; i < iters && (p.Ctx == nil || p.Ctx.Err() == nil); i++ {
		losses = append(losses, p.step(draw))
	}
	sp.end()
	return losses
}

// tuneSpan wraps a tuning loop in an obsv span whose closing fields report
// iterations, tokens consumed, and throughput in tokens per second.
type tuneSpan struct {
	sp     obsv.Span
	iters  int
	tokens float64
	start  time.Time
	live   bool
}

func (p *Pipeline) tuneSpan(name string, iters int) tuneSpan {
	if !obsv.Enabled() {
		return tuneSpan{}
	}
	t := tuneSpan{
		sp:     p.Trace.Child(name),
		iters:  iters,
		tokens: float64(iters) * float64(p.Cfg.Batch) * float64(p.Cfg.Seq),
		start:  time.Now(),
		live:   true,
	}
	// Per-iteration adapt.step spans nest under this tuning stage.
	if p.Tuner != nil {
		p.Tuner.Trace = t.sp
	}
	return t
}

func (t tuneSpan) end() {
	if !t.live {
		return
	}
	tps := 0.0
	if dur := time.Since(t.start); dur > 0 {
		tps = t.tokens / dur.Seconds()
	}
	t.sp.EndWith(map[string]float64{
		"iters":       float64(t.iters),
		"tokens":      t.tokens,
		"tok_per_sec": tps,
	})
}

// FinishTuning builds and calibrates the voter over the exits the tuner
// visited (plus the final head) using held-out calibration batches.
func (p *Pipeline) FinishTuning(calibBatches [][][]int, calibTargets [][]int) {
	sp := p.Trace.Child("pipeline.vote")
	defer sp.EndWith(map[string]float64{"exits": float64(len(p.Tuner.TunedExits()) + 1)})
	exits := append(p.Tuner.TunedExits(), adapt.FinalHead(p.Model))
	p.Voter = adapt.NewVoter(exits, p.Cfg.VoteMode)
	if p.Cfg.VoteMode == adapt.VoteCalibrated && len(calibBatches) > 0 {
		p.Voter.Calibrate(p.Model, calibBatches, calibTargets, 0.5)
	}
}

// Forward returns the pipeline's inference logits (log-prob scores): the
// calibrated vote when available, otherwise the final head.
func (p *Pipeline) Forward(batch [][]int) *ag.Value {
	if p.Voter != nil {
		return p.Voter.Logits(p.Model, batch)
	}
	return p.Model.Logits(batch)
}

// EvalPerplexity measures perplexity of the pipeline's inference path.
func (p *Pipeline) EvalPerplexity(c *data.Corpus, maxBatches int) float64 {
	batches, targets := c.SequentialBatches(p.Cfg.Batch, p.Cfg.Seq, maxBatches)
	return train.EvalPerplexityWith(p.Forward, batches, targets)
}

// MemorySpec derives the analytic memory model of one tuning iteration of
// this pipeline: the window under its LUC policy once compressed.
func (p *Pipeline) MemorySpec() train.MemorySpec {
	var bits, sparsity []float64
	if p.compressed {
		bits, sparsity = p.Info.BlockBits(), p.Info.BlockSparsity()
	}
	return train.WindowSpec(p.Cfg.Model, p.Cfg.Batch, p.Cfg.Seq, p.Cfg.WindowSize, false, bits, sparsity, adamWBytes)
}

// Memory returns the analytic per-iteration memory breakdown.
func (p *Pipeline) Memory() train.MemoryBreakdown {
	return train.EstimateMemory(p.MemorySpec())
}

// IterationCost returns the mean modeled latency of one tuning iteration
// over a full cycle of the pipeline's window schedule, under the given
// scheduler.
func (p *Pipeline) IterationCost(sched hwsim.Scheduler) hwsim.Cost {
	cfg := p.Cfg.Model
	spec := hwsim.VanillaIteration(cfg, p.Cfg.Batch, p.Cfg.Seq)
	if p.compressed {
		for i, l := range p.Info.Layers {
			spec.Compression[i] = hwsim.LayerCompression{Bits: l.Candidate.Bits, Sparsity: l.Candidate.Sparsity}
		}
	}
	var window func(i int) (lo, hi int)
	if p.Tuner != nil {
		window = p.Tuner.Window
	} else {
		tc, err := p.tunerConfig()
		if err != nil {
			panic(err)
		}
		window = func(i int) (lo, hi int) { return tc.WindowAt(cfg.Layers, i) }
	}
	return hwsim.CycleCost(p.Cfg.Device, sched, spec, cfg.Layers, window)
}
