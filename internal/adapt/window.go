// Package adapt implements Edge-LLM's adaptive layer tuning & voting
// scheme, plus the tuning baselines it is compared against (full
// fine-tuning, layer-freeze/"last-k" tuning, and LoRA).
//
// Adaptive layer tuning updates a bounded window of consecutive transformer
// blocks per iteration and computes the loss at the early-exit head on top
// of that window, so the autograd tape — and with it activation memory,
// gradient memory, and optimizer state — never spans more than the window.
// Across iterations the window moves over the depth of the network
// according to a WindowStrategy, so every layer is eventually adapted.
// After tuning, the trained exit heads are adaptively combined by a Voter
// (see voting.go) to recover full-model quality at inference.
package adapt

import (
	"fmt"
	"math"
	"strconv"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/train"
)

// WindowStrategy selects which layer window is tuned at a given iteration.
type WindowStrategy int

const (
	// StrategySliding slides the window top one layer per iteration,
	// wrapping around — every depth is visited uniformly.
	StrategySliding WindowStrategy = iota
	// StrategyRoundRobin partitions the stack into ⌈L/W⌉ fixed windows and
	// cycles through them, so each parameter always lands in the same
	// window (more optimizer-state reuse).
	StrategyRoundRobin
	// StrategyTopOnly always tunes the top window — the degenerate
	// "last-k" baseline; included for the F2 ablation.
	StrategyTopOnly
	// StrategySensitivity visits windows in proportion to a per-layer
	// importance profile (e.g. the LUC sensitivity probe): more important
	// layers are tuned more often.
	StrategySensitivity
)

// String names the strategy for reports.
func (s WindowStrategy) String() string {
	switch s {
	case StrategySliding:
		return "sliding"
	case StrategyRoundRobin:
		return "round-robin"
	case StrategyTopOnly:
		return "top-only"
	case StrategySensitivity:
		return "sensitivity"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// TunerConfig configures the adaptive layer tuner.
type TunerConfig struct {
	// WindowSize is the number of consecutive blocks tuned per iteration
	// (the paper's backpropagation-depth bound).
	WindowSize int
	// Strategy selects the window schedule.
	Strategy WindowStrategy
	// Importance drives StrategySensitivity: one non-negative weight per
	// layer. Ignored by other strategies.
	Importance []float64
	// Segments splits each window into that many checkpointed segments
	// (train.SegmentedBackward); ≤ 1 is the plain window, and a window
	// narrower than Segments takes one block a segment. Every segment but
	// the top one runs tape-free first and is re-run with a tape during
	// backward, so peak tape memory drops to ⌈W/Segments⌉ blocks at the cost
	// of that extra forward. Gradients are bitwise-identical at any count —
	// the resource governor's recompute rung sets it without perturbing
	// results.
	Segments int
}

// Validate reports the first invalid field given a model depth.
func (c TunerConfig) Validate(layers int) error {
	if c.WindowSize < 1 || c.WindowSize > layers {
		return fmt.Errorf("adapt: window size %d out of [1,%d]", c.WindowSize, layers)
	}
	if c.Strategy == StrategySensitivity && len(c.Importance) != layers {
		return fmt.Errorf("adapt: sensitivity strategy needs %d importance weights, got %d",
			layers, len(c.Importance))
	}
	return nil
}

// Tuner drives adaptive layer tuning of a model.
type Tuner struct {
	Model *nn.Model
	Cfg   TunerConfig

	// Trace, when set, parents the per-iteration telemetry spans
	// (adapt.step → adapt.forward / adapt.update) so tuning nests under
	// the owning pipeline stage in the trace viewer. The zero value is
	// fine: spans then root at the global recorder, or stay inert when
	// observability is disabled.
	Trace obsv.Span

	iter int
	// visitPlan caches the deterministic window-top sequence for the
	// sensitivity strategy.
	visitPlan []int
	// winParams caches each window's trainable-parameter slice, keyed by
	// window top (lo and the with-final flag are functions of hi), so Step
	// does not rebuild it every iteration.
	winParams map[int][]nn.NamedParam
	// fwd is the no-grad forward that runs each window's frozen prefix.
	fwd *nn.Forward
}

// NewTuner validates the configuration and returns a tuner.
func NewTuner(m *nn.Model, cfg TunerConfig) (*Tuner, error) {
	if len(m.Exits) == 0 {
		return nil, fmt.Errorf("adapt: model must be built with ExitHeads")
	}
	if err := cfg.Validate(len(m.Blocks)); err != nil {
		return nil, err
	}
	t := &Tuner{Model: m, Cfg: cfg, fwd: nn.NewForward(m)}
	if cfg.Strategy == StrategySensitivity {
		t.visitPlan = sensitivityPlan(cfg.Importance, cfg.WindowSize)
	}
	return t, nil
}

// Window returns the inclusive block range [lo, hi] tuned at iteration
// `iter`. The loss is computed at the exit head of layer hi.
func (t *Tuner) Window(iter int) (lo, hi int) {
	if t.Cfg.Strategy == StrategySensitivity {
		// Use the cached visit plan instead of rebuilding it per call.
		return windowFromTop(t.visitPlan[iter%len(t.visitPlan)], t.Cfg.WindowSize)
	}
	return t.Cfg.WindowAt(len(t.Model.Blocks), iter)
}

// WindowAt computes the window tuned at iteration iter for a model of the
// given depth — a pure function of the configuration, usable without a
// Tuner. The resource governor's admission estimator replays window
// schedules with it to predict optimizer-state growth deterministically.
// For StrategySensitivity the visit plan is rebuilt on the fly; results
// match a Tuner's cached plan exactly.
func (c TunerConfig) WindowAt(layers, iter int) (lo, hi int) {
	w := c.WindowSize
	switch c.Strategy {
	case StrategySliding:
		hi = iter % layers
	case StrategyRoundRobin:
		groups := (layers + w - 1) / w
		g := iter % groups
		hi = g*w + w - 1
		if hi >= layers {
			hi = layers - 1
		}
	case StrategyTopOnly:
		hi = layers - 1
	case StrategySensitivity:
		plan := sensitivityPlan(c.Importance, w)
		hi = plan[iter%len(plan)]
	}
	return windowFromTop(hi, w)
}

// windowFromTop derives the inclusive window from its top layer and width.
func windowFromTop(hi, w int) (int, int) {
	lo := hi - w + 1
	if lo < 0 {
		lo = 0
	}
	return lo, hi
}

// sensitivityPlan builds a deterministic visiting sequence of window tops
// whose visit frequencies are proportional to the aggregated importance of
// the layers each window covers (largest-remainder apportionment over a
// plan of fixed length).
func sensitivityPlan(importance []float64, windowSize int) []int {
	layers := len(importance)
	weights := make([]float64, layers)
	var total float64
	for hi := 0; hi < layers; hi++ {
		lo := hi - windowSize + 1
		if lo < 0 {
			lo = 0
		}
		for l := lo; l <= hi; l++ {
			weights[hi] += math.Max(importance[l], 0)
		}
		if weights[hi] == 0 {
			weights[hi] = 1e-12
		}
		total += weights[hi]
	}
	const planLen = 64
	// Every window top gets at least one visit (no layer may starve); the
	// remaining slots are apportioned by largest remainder.
	counts := make([]int, layers)
	remainders := make([]float64, layers)
	assigned := 0
	for i, w := range weights {
		exact := float64(planLen-layers) * w / total
		counts[i] = 1 + int(exact)
		remainders[i] = exact - math.Floor(exact)
		assigned += counts[i]
	}
	for assigned < planLen {
		best := 0
		for i := range remainders {
			if remainders[i] > remainders[best] {
				best = i
			}
		}
		counts[best]++
		remainders[best] = -1
		assigned++
	}
	// Interleave visits round-robin so heavy layers are spread out.
	plan := make([]int, 0, planLen)
	for len(plan) < planLen {
		for i := 0; i < layers; i++ {
			if counts[i] > 0 {
				plan = append(plan, i)
				counts[i]--
			}
		}
	}
	return plan
}

// windowModule is the module set updated for window [lo, hi]: the blocks
// in the window, the exit head at hi, and — when the window tops out at
// the last block — the final norm and LM head, so the model's primary
// output keeps pace with the tuned exits and contributes usefully to the
// vote. The parameter slice is prebuilt by Tuner.windowParams and cached
// across iterations.
type windowModule struct {
	ps []nn.NamedParam
}

// Params implements nn.Module over the window's trainable set.
func (w windowModule) Params() []nn.NamedParam { return w.ps }

// windowParams returns (building and caching on first use) the trainable
// set for the window topping at hi.
func (t *Tuner) windowParams(lo, hi int, withFinal bool) []nn.NamedParam {
	if ps, ok := t.winParams[hi]; ok {
		return ps
	}
	var ps []nn.NamedParam
	for i := lo; i <= hi; i++ {
		ps = append(ps, t.Model.Blocks[i].Params()...)
	}
	ps = append(ps, t.Model.Exits[hi].Params()...)
	if withFinal {
		ps = append(ps, t.Model.Norm.Params()...)
		ps = append(ps, t.Model.LMHead.Params()...)
	}
	if t.winParams == nil {
		t.winParams = map[int][]nn.NamedParam{}
	}
	t.winParams[hi] = ps
	return ps
}

// Step performs one adaptive tuning iteration: selects the window for the
// current iteration, runs train.SegmentedBackward over it with the window's
// parameters as the only trainable ones and the loss at the window-top exit
// head (plus the final head when the window reaches the top of the stack),
// and applies the optimizer. The model is frozen again when Step returns.
// Returns the loss and the window used.
//
// With observability enabled, each iteration emits an adapt.step span
// with adapt.forward (forward and backward) / adapt.update (the optimizer)
// children, the backprop depth and estimated peak activation bytes of the
// window (the paper's two memory levers), and per-block gradient norms
// (labeled layer=<i>) captured via the trainer's GradHook while gradients
// are live.
func (t *Tuner) Step(tr *train.Trainer, inputs [][]int, targets []int) (loss float64, lo, hi int) {
	lo, hi = t.Window(t.iter)
	t.iter++

	m := t.Model
	last := hi == len(m.Blocks)-1
	depth := hi - lo + 1
	segments := min(max(t.Cfg.Segments, 1), depth)
	if tr.Heartbeat != nil {
		tr.Heartbeat() // progress signal before the (possibly long) forward
	}

	obs := obsv.Global()
	var step obsv.Span
	if obs != nil {
		step = t.Trace.Child("adapt.step")
		tr.GradHook = func([]nn.NamedParam) { t.recordBlockGrads(obs, lo, hi) }
		defer func() { tr.GradHook = nil }()
	}

	head := func(hidden *ag.Value) *ag.Value {
		ce := ag.CrossEntropy(m.Exits[hi].Forward(hidden), targets, -1)
		if last {
			ceFinal := ag.CrossEntropy(m.LMHead.Forward(m.Norm.Forward(hidden)), targets, -1)
			ce = ag.Scale(ag.Add(ce, ceFinal), 0.5)
		}
		return ce
	}
	mod := windowModule{ps: t.windowParams(lo, hi, last)}
	fwd := step.Child("adapt.forward")
	loss = train.SegmentedBackward(t.fwd, inputs, lo, hi, segments, head, mod)
	fwd.End()
	upd := step.Child("adapt.update")
	tr.ApplyGrads(mod, loss)
	upd.End()

	if obs != nil {
		tapeDepth := (depth + segments - 1) / segments // one segment's tape at a time
		obs.Add("adapt.tune_steps", 1)
		obs.SetGauge("adapt.window_lo", float64(lo))
		obs.SetGauge("adapt.window_hi", float64(hi))
		obs.Observe("adapt.backprop_depth", float64(depth))
		if len(inputs) > 0 && len(inputs[0]) > 0 {
			// Peak activation memory ≈ live tape depth × one block's
			// activations: layers below the window (and the window's other
			// segments) run tape-free.
			perBlock := train.BlockActivationBytes(m.Cfg, len(inputs), len(inputs[0]))
			obs.SetGauge("adapt.peak_activation_bytes", float64(int64(tapeDepth)*perBlock))
		}
		step.EndWith(map[string]float64{"loss": loss, "lo": float64(lo), "hi": float64(hi)})
	}
	return loss, lo, hi
}

// SetWindowSize reconfigures the tuner's window width mid-run — the
// resource governor's shrink-window degradation rung. The cached window
// parameter sets and the sensitivity visit plan are rebuilt, since both
// depend on the width.
func (t *Tuner) SetWindowSize(w int) error {
	if w == t.Cfg.WindowSize {
		return nil
	}
	cfg := t.Cfg
	cfg.WindowSize = w
	if err := cfg.Validate(len(t.Model.Blocks)); err != nil {
		return err
	}
	t.Cfg = cfg
	t.winParams = nil
	if cfg.Strategy == StrategySensitivity {
		t.visitPlan = sensitivityPlan(cfg.Importance, w)
	}
	return nil
}

// recordBlockGrads publishes the L2 gradient norm of every block in the
// active window as a layer-labeled gauge. It runs inside the trainer's
// GradHook — after clipping, before the optimizer consumes the gradients.
func (t *Tuner) recordBlockGrads(obs *obsv.Recorder, lo, hi int) {
	for i := lo; i <= hi; i++ {
		var ss float64
		for _, p := range t.Model.Blocks[i].Params() {
			if p.Value.Grad == nil {
				continue
			}
			n := p.Value.Grad.Norm2()
			ss += n * n
		}
		obs.SetGauge("adapt.block_grad_norm", math.Sqrt(ss), obsv.L("layer", strconv.Itoa(i)))
	}
}

// Iterations returns how many Step calls have been made.
func (t *Tuner) Iterations() int { return t.iter }

// TunedExits returns the sorted set of exit layers the strategy will ever
// place a loss at — the heads the Voter should combine.
func (t *Tuner) TunedExits() []int {
	layers := len(t.Model.Blocks)
	seen := make([]bool, layers)
	// One full cycle of any strategy repeats within layers·planLen iters.
	horizon := layers
	if t.Cfg.Strategy == StrategySensitivity {
		horizon = len(t.visitPlan)
	}
	for i := 0; i < horizon; i++ {
		_, hi := t.Window(i)
		seen[hi] = true
	}
	var exits []int
	for i, s := range seen {
		if s {
			exits = append(exits, i)
		}
	}
	return exits
}
