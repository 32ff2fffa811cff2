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
// any GOMAXPROCS and on every run of the same configuration.

package core

import (
	"fmt"

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
	return train.WindowSpec(m, pl.Batch, cfg.Seq, pl.WindowSize, pl.Segments, bits, nil)
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
	gov     *govern.Governor
	task    string
	plan    govern.Plan
	stepped stepped
}

// stepped records the parameter groups a tuning run has stepped: blocks,
// exit heads, and the final norm + LM head.
type stepped struct {
	blk, exit []bool
	final     bool
}

// mark records the window [lo, hi]: its blocks, the exit at hi, and the
// final head when hi is the top layer.
func (s *stepped) mark(lo, hi int) {
	for i := lo; i <= hi; i++ {
		s.blk[i] = true
	}
	s.exit[hi] = true
	if hi == len(s.blk)-1 {
		s.final = true
	}
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
		stepped: stepped{
			blk:  make([]bool, cfg.Model.Layers),
			exit: make([]bool, cfg.Model.Layers),
		},
	}
}

// projectedOptElems counts the optimizer-state elements that would exist
// after stepping the window scheduled at iteration iter under plan pl:
// the union of everything already stepped and that window. AdamW state is
// lazy per parameter, so this is exactly the deterministic accumulation
// schedule the optimizer follows.
func (gs *governedState) projectedOptElems(p *Pipeline, pl govern.Plan, iter int) int64 {
	m := p.Cfg.Model
	s := stepped{
		blk:   append([]bool(nil), gs.stepped.blk...),
		exit:  append([]bool(nil), gs.stepped.exit...),
		final: gs.stepped.final,
	}
	tc := p.Tuner.Cfg
	tc.WindowSize = pl.WindowSize
	s.mark(tc.WindowAt(m.Layers, iter))

	var n int64
	anyExit := false
	for i := range s.blk {
		if s.blk[i] {
			n += train.BlockElems(m)
		}
		if s.exit[i] {
			n += train.ExitOwnedElems(m)
			anyExit = true
		}
	}
	if anyExit && m.TieExitHeads {
		n += int64(m.Dim) * int64(m.Vocab) // shared exit projection, stated once
	}
	if s.final {
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
	p.Tuner.Cfg.Segments = admitted.Segments
	p.Cfg.Batch = admitted.Batch
	admitted.MinBits = gs.plan.MinBits
	gs.plan = admitted

	gs.stepped.mark(p.Tuner.Window(iter))
}

// GovernedPlan returns the currently admitted plan, or the zero Plan when
// the pipeline is ungoverned.
func (p *Pipeline) GovernedPlan() govern.Plan {
	if p.gstate == nil {
		return govern.Plan{}
	}
	return p.gstate.plan
}

// VanillaPeakBytes is the analytic peak training footprint of vanilla full
// fine-tuning under cfg — the reference point the CLI's
// -mem-budget=half-vanilla divides in two.
func VanillaPeakBytes(cfg Config) int64 {
	return train.EstimateMemory(train.VanillaSpec(cfg.Model, cfg.Batch, cfg.Seq)).Total()
}
