// Resource-governed pipeline admission. When a suite run installs a
// govern.Governor (RunAll's SuiteOpts.Govern), every Pipeline and baseline
// method admits its resource plan against the memory budget before
// building anything, and the pipeline re-admits before every tuning step
// as optimizer state accumulates across visited windows.
//
// All estimates here are analytic — pure functions of the configuration
// and the deterministic window schedule, in the train.EstimateMemory
// accounting system. Live pool readings never enter them (see the package
// comment in internal/govern), so the rung sequence is byte-identical at
// any GOMAXPROCS and replays exactly on snapshot resume.

package core

import (
	"fmt"

	ag "edgellm/internal/autograd"
	"edgellm/internal/govern"
	"edgellm/internal/luc"
	"edgellm/internal/obsv"
	"edgellm/internal/train"
)

// tuningSpec is the analytic model of one adaptive-tuning step under a
// plan: train.WindowSpec with every block at the plan's LUC bit budget (the
// average effective bits LUC's search targets).
func tuningSpec(cfg Config, pl govern.Plan) train.MemorySpec {
	m := cfg.Model
	m.ExitHeads = true // as New forces
	var bits []float64
	if pl.BudgetBits > 0 {
		bits = train.PerLayer(m.Layers, pl.BudgetBits)
	}
	return train.WindowSpec(m, pl.Batch, cfg.Seq, pl.WindowSize, pl.Recompute, bits, nil, adamWBytes)
}

// admissionEstimator prices a pipeline plan at construction time: one
// window's optimizer state (the first step's footprint). Mid-run
// re-admission accounts for accumulated state via projectedOptElems.
func admissionEstimator(cfg Config) govern.Estimator {
	return func(pl govern.Plan) int64 {
		return train.EstimateMemory(tuningSpec(cfg, pl)).Total()
	}
}

// governedState tracks one governed pipeline: its admitted plan and which
// parameter groups have entered the optimizer (and therefore hold state)
// so the pre-step estimate can project the post-step footprint.
type governedState struct {
	gov  *govern.Governor
	task string
	plan govern.Plan

	steppedBlk   []bool
	steppedExit  []bool
	steppedFinal bool
}

// governPipeline admits cfg against the active governor's budget and
// returns the (possibly degraded) config plus the tracking state; state is
// nil when no governor is active or governance is disabled.
func governPipeline(cfg Config, cands []luc.Candidate) (Config, *governedState) {
	gov := activeGovernor()
	if !gov.Enabled() {
		return cfg, nil
	}
	minWindow := 2
	if cfg.WindowSize < minWindow {
		minWindow = cfg.WindowSize
	}
	minBits := luc.MinEffectiveBits(cands)
	if minBits < 1 {
		minBits = 1
	}
	pl := govern.Plan{
		WindowSize: cfg.WindowSize, MinWindow: minWindow,
		BudgetBits: cfg.BudgetBits, MinBits: minBits,
		MaxSegments: 2, // window recompute splits the span in half
		Batch:       cfg.Batch,
	}
	task := "pipeline@" + obsv.HashConfig(cfg)
	pl = gov.Admit(task, "admission", pl, admissionEstimator(cfg))
	cfg.WindowSize, cfg.BudgetBits, cfg.Batch = pl.WindowSize, pl.BudgetBits, pl.Batch
	return cfg, &governedState{
		gov: gov, task: task, plan: pl,
		steppedBlk:  make([]bool, cfg.Model.Layers),
		steppedExit: make([]bool, cfg.Model.Layers),
	}
}

// projectedOptElems counts the optimizer-state elements that would exist
// after stepping the window scheduled at iteration iter under plan pl:
// the union of everything already stepped and that window. AdamW state is
// lazy per parameter, so this is exactly the deterministic accumulation
// schedule the optimizer follows.
func (gs *governedState) projectedOptElems(p *Pipeline, pl govern.Plan, iter int) int64 {
	m := p.Cfg.Model
	blk := make([]bool, len(gs.steppedBlk))
	copy(blk, gs.steppedBlk)
	exit := make([]bool, len(gs.steppedExit))
	copy(exit, gs.steppedExit)
	final := gs.steppedFinal

	tc := p.Tuner.Cfg
	tc.WindowSize = pl.WindowSize
	lo, hi := tc.WindowAt(m.Layers, iter)
	for i := lo; i <= hi; i++ {
		blk[i] = true
	}
	exit[hi] = true
	if hi == m.Layers-1 {
		final = true
	}

	var n int64
	anyExit := false
	for i := range blk {
		if blk[i] {
			n += train.BlockElems(m)
		}
		if exit[i] {
			n += train.ExitOwnedElems(m)
			anyExit = true
		}
	}
	if anyExit && m.TieExitHeads {
		n += int64(m.Dim) * int64(m.Vocab) // shared exit projection, stated once
	}
	if final {
		n += train.HeadElems(m) // final norm + lm head
	}
	return n
}

// preStepGovern re-admits the pipeline's plan immediately before a tuning
// step, pricing in the optimizer state the step would leave behind. Any
// rung that fires is applied live (window shrink, recompute switch, batch
// halving); the bits rung is off the table mid-run — the backbone is
// already quantized — which the plan encodes by raising MinBits to the
// current budget. The window the step will tune is then marked stepped.
func (p *Pipeline) preStepGovern() {
	gs := p.gstate
	if gs == nil || p.Tuner == nil || !gs.gov.Enabled() {
		return
	}
	iter := p.Tuner.Iterations()
	pl := gs.plan
	pl.MinBits = pl.BudgetBits
	if pl.MinBits <= 0 {
		pl.MinBits = 32
	}
	est := func(q govern.Plan) int64 {
		spec := tuningSpec(p.Cfg, q)
		spec.OptElems = gs.projectedOptElems(p, q, iter)
		return train.EstimateMemory(spec).Total()
	}
	admitted := gs.gov.Admit(gs.task, fmt.Sprintf("step@%d", iter), pl, est)

	if admitted.WindowSize != pl.WindowSize {
		if err := p.Tuner.SetWindowSize(admitted.WindowSize); err != nil {
			panic(err) // ladder only shrinks, so this cannot go out of range
		}
	}
	if admitted.Recompute != pl.Recompute {
		p.Tuner.SetRecompute(admitted.Recompute)
	}
	if admitted.Batch != pl.Batch {
		p.Cfg.Batch = admitted.Batch
	}
	admitted.MinBits = gs.plan.MinBits
	gs.plan = admitted

	m := p.Cfg.Model
	lo, hi := p.Tuner.Window(iter)
	for i := lo; i <= hi; i++ {
		gs.steppedBlk[i] = true
	}
	gs.steppedExit[hi] = true
	if hi == m.Layers-1 {
		gs.steppedFinal = true
	}
	if pool := ag.ActivePool(); pool != nil {
		gs.gov.ObserveLive(pool.Stats().BytesInUse)
	}
}

// ReplayGovernance re-derives the governed state after a snapshot resume:
// it replays the pre-step admissions for iterations [0, upTo) so the plan,
// the stepped-parameter tracking, and the recorded rung sequence match
// what the interrupted run had at that point — degradation composes with
// resume because both are deterministic in the iteration number.
func (p *Pipeline) ReplayGovernance(upTo int) {
	if p.gstate == nil || p.Tuner == nil {
		return
	}
	for i := 0; i < upTo; i++ {
		p.Tuner.SetIteration(i)
		p.preStepGovern()
	}
	p.Tuner.SetIteration(upTo)
}

// GovernedPlan returns the currently admitted plan, or the zero Plan when
// the pipeline is ungoverned.
func (p *Pipeline) GovernedPlan() govern.Plan {
	if p.gstate == nil {
		return govern.Plan{}
	}
	return p.gstate.plan
}

// Governed reports whether a governor admitted this pipeline.
func (p *Pipeline) Governed() bool { return p.gstate != nil }

// VanillaPeakBytes is the analytic peak training footprint of vanilla full
// fine-tuning under cfg — the reference point the CLI's
// -mem-budget=half-vanilla divides in two.
func VanillaPeakBytes(cfg Config) int64 {
	return train.EstimateMemory(train.VanillaSpec(cfg.Model, cfg.Batch, cfg.Seq, adamWBytes)).Total()
}
