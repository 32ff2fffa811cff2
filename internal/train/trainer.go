package train

import (
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
)

// Schedule maps a 0-based step index to a learning-rate multiplier.
type Schedule func(step int) float64

// ConstantSchedule keeps the multiplier at 1.
func ConstantSchedule() Schedule { return func(int) float64 { return 1 } }

// DefaultMaxBadSteps is the consecutive non-finite-step budget NewTrainer
// installs before declaring divergence.
const DefaultMaxBadSteps = 5

// DivergenceError reports a run that produced MaxBadSteps consecutive
// non-finite losses or gradients. Trainer.Step throws it as a panic value
// so existing call sites keep their signatures; the experiment runner's
// per-task recovery and Loop.Run both convert it into an ordinary error.
// It is deterministic, so the runner classifies it as non-retryable.
type DivergenceError struct {
	// Consecutive is the length of the bad-step streak.
	Consecutive int
	// LastLoss is the loss value of the final bad step.
	LastLoss float64
}

// Error implements error.
func (e *DivergenceError) Error() string {
	return fmt.Sprintf("train: diverged: %d consecutive non-finite steps (last loss %v)",
		e.Consecutive, e.LastLoss)
}

// Trainer drives optimization steps: backward, global-norm clipping,
// optimizer update, gradient reset.
type Trainer struct {
	Opt Optimizer
	// BaseLR is multiplied by the Schedule each step.
	BaseLR float32
	// ClipNorm bounds the global gradient L2 norm; 0 disables clipping.
	ClipNorm float64
	// Sched defaults to a constant schedule.
	Sched Schedule
	// MaxBadSteps aborts the run (panic with *DivergenceError) after this
	// many consecutive steps with a non-finite loss or gradient norm.
	// Non-finite steps always skip the parameter update; 0 disables only
	// the abort, never the skip.
	MaxBadSteps int

	// GradHook, when set and observability is enabled, is called once per
	// applied step after clipping and before the optimizer update, while
	// gradients are still live. adapt.Tuner uses it to record per-block
	// gradient norms (the block boundaries live there, not here). It is
	// never called on skipped steps or when the global recorder is off.
	GradHook func(params []nn.NamedParam)

	// Heartbeat, when set, is invoked at the start of every Step and
	// ApplyGrads call — the progress signal the resource governor's stall
	// watchdog listens to. It must be cheap and must not panic.
	Heartbeat func()

	step int
	// badStreak counts consecutive skipped (non-finite) steps.
	badStreak int
	// allocSample is the reusable runtime/metrics query behind the
	// train.allocs_per_step metric (cheap, no stop-the-world).
	allocSample [1]metrics.Sample
}

// NewTrainer wraps opt with base learning rate lr and clipping at clip.
// The divergence guard is on by default (DefaultMaxBadSteps).
func NewTrainer(opt Optimizer, lr float32, clip float64) *Trainer {
	return &Trainer{Opt: opt, BaseLR: lr, ClipNorm: clip, Sched: ConstantSchedule(),
		MaxBadSteps: DefaultMaxBadSteps}
}

// skipBadStep accounts one non-finite step: the update is skipped, the
// event is counted via obsv, and once the streak reaches MaxBadSteps the
// run is aborted with a *DivergenceError panic (recovered into an error by
// the runner and by Loop.Run).
func (t *Trainer) skipBadStep(lossVal float64) {
	t.badStreak++
	if obs := obsv.Global(); obs != nil {
		obs.Add("train.nonfinite_steps", 1)
		obs.Add("train.update_skips", 1)
		obs.SetGauge("train.bad_streak", float64(t.badStreak))
	}
	if t.MaxBadSteps > 0 && t.badStreak >= t.MaxBadSteps {
		obsv.Add("train.divergence_aborts", 1)
		panic(&DivergenceError{Consecutive: t.badStreak, LastLoss: lossVal})
	}
}

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Step runs backward from loss, clips, updates m's parameters, clears the
// gradients, and returns the loss value.
//
// Divergence guard: a non-finite loss skips the whole step (no backward,
// no update), and a non-finite gradient norm — checked whenever the norm
// is computed anyway, i.e. with clipping or observability on — skips the
// update and clears the gradients. Either event counts toward the
// consecutive bad-step streak that aborts the run at MaxBadSteps; any
// finite step resets the streak.
//
// When the global obsv recorder is enabled, Step records its wall-clock
// latency, the pre-clip global gradient norm, clip events, skipped
// non-finite steps, and the effective learning rate. Disabled, the
// instrumentation costs a single nil check.
func (t *Trainer) Step(m nn.Module, loss *ag.Value) float64 {
	if t.Heartbeat != nil {
		t.Heartbeat()
	}
	// A panic mid-step (a crashing optimizer, an injected fault in a hook,
	// a kernel bug) would otherwise strand the live tape's pooled buffers:
	// nothing downstream ever releases a graph the step did not finish.
	// Release on the way out — ReleaseTape and ZeroGrad are idempotent, so
	// paths that already released stay correct — then re-panic for the
	// runner's per-task recovery.
	defer func() {
		if r := recover(); r != nil {
			releaseLoss(loss)
			nn.ZeroGrads(m)
			panic(r)
		}
	}()
	obs := obsv.Global()
	var start time.Time
	var allocs0 uint64
	if obs != nil {
		start = time.Now()
		allocs0 = t.heapAllocObjects()
	}
	lossVal := float64(loss.Data.Data[0])
	if !finite(lossVal) {
		releaseLoss(loss)
		t.skipBadStep(lossVal)
		return lossVal
	}
	loss.Backward()
	params := m.Params()
	var gradNorm float64
	clipped := false
	if t.ClipNorm > 0 || obs != nil {
		gradNorm = globalNorm(params)
		if !finite(gradNorm) {
			nn.ZeroGrads(m)
			releaseLoss(loss)
			t.skipBadStep(lossVal)
			return lossVal
		}
		clipped = clipToNorm(params, gradNorm, t.ClipNorm)
	}
	t.badStreak = 0
	if t.GradHook != nil && obs != nil {
		t.GradHook(params)
	}
	lr := t.BaseLR * float32(t.Sched(t.step))
	t.Opt.Step(params, lr)
	nn.ZeroGrads(m)
	releaseLoss(loss)
	t.step++
	if obs != nil {
		t.record(obs, start, gradNorm, clipped, lr, allocs0)
	}
	return lossVal
}

// releaseLoss hands the consumed loss graph's buffers back to the arena.
// Without a pool it is a no-op, preserving the historical behaviour that a
// caller may keep reading the graph after Step.
func releaseLoss(loss *ag.Value) {
	if ag.ActivePool() != nil {
		ag.ReleaseTape(loss)
	}
}

// heapAllocObjects reads the cumulative heap allocation count.
func (t *Trainer) heapAllocObjects() uint64 {
	if t.allocSample[0].Name == "" {
		t.allocSample[0].Name = "/gc/heap/allocs:objects"
	}
	metrics.Read(t.allocSample[:])
	return t.allocSample[0].Value.Uint64()
}

// ApplyGrads clips and applies already-accumulated gradients (e.g. from
// CheckpointedStep, which runs its own backward pass) and clears them. The
// same non-finite-gradient guard as Step applies.
func (t *Trainer) ApplyGrads(m nn.Module) {
	if t.Heartbeat != nil {
		t.Heartbeat()
	}
	// Same panic hygiene as Step: a crash mid-update must not strand the
	// accumulated (pooled) gradients.
	defer func() {
		if r := recover(); r != nil {
			nn.ZeroGrads(m)
			panic(r)
		}
	}()
	obs := obsv.Global()
	var start time.Time
	var allocs0 uint64
	if obs != nil {
		start = time.Now()
		allocs0 = t.heapAllocObjects()
	}
	params := m.Params()
	var gradNorm float64
	clipped := false
	if t.ClipNorm > 0 || obs != nil {
		gradNorm = globalNorm(params)
		if !finite(gradNorm) {
			nn.ZeroGrads(m)
			t.skipBadStep(gradNorm)
			return
		}
		clipped = clipToNorm(params, gradNorm, t.ClipNorm)
	}
	t.badStreak = 0
	if t.GradHook != nil && obs != nil {
		t.GradHook(params)
	}
	lr := t.BaseLR * float32(t.Sched(t.step))
	t.Opt.Step(params, lr)
	nn.ZeroGrads(m)
	t.step++
	if obs != nil {
		t.record(obs, start, gradNorm, clipped, lr, allocs0)
	}
}

// record emits one step's metrics to the recorder.
func (t *Trainer) record(obs *obsv.Recorder, start time.Time, gradNorm float64, clipped bool, lr float32, allocs0 uint64) {
	obs.Observe("train.step_ms", float64(time.Since(start))/float64(time.Millisecond))
	obs.Observe("train.grad_norm", gradNorm)
	obs.SetGauge("train.lr", float64(lr))
	obs.Add("train.steps", 1)
	if clipped {
		obs.Add("train.clip_events", 1)
	}
	obs.Observe("train.allocs_per_step", float64(t.heapAllocObjects()-allocs0))
	if p := ag.ActivePool(); p != nil {
		// Cumulative process-wide totals: the pool is shared, so gauges
		// (not per-trainer deltas) stay correct under parallel experiments.
		s := p.Stats()
		obs.SetGauge("tensor.pool_hit", float64(s.Hits))
		obs.SetGauge("tensor.pool_miss", float64(s.Misses))
		obs.SetGauge("tensor.pool_bytes_in_use", float64(s.BytesInUse))
	}
}

// StepCount returns how many updates have been applied.
func (t *Trainer) StepCount() int { return t.step }

// SetStepCount overrides the applied-update counter; snapshot resume uses
// it so learning-rate schedules continue from the interrupted position.
func (t *Trainer) SetStepCount(n int) { t.step = n }

// clipToNorm rescales all gradients so their joint L2 norm is ≤ maxNorm
// (no-op when maxNorm ≤ 0) and reports whether clipping fired. norm is the
// pre-computed global gradient norm.
func clipToNorm(params []nn.NamedParam, norm, maxNorm float64) bool {
	if maxNorm <= 0 || norm <= maxNorm || norm == 0 {
		return false
	}
	scale := float32(maxNorm / norm)
	for _, p := range params {
		if p.Value.Grad != nil {
			p.Value.Grad.ScaleInPlace(scale)
		}
	}
	return true
}

// globalNorm returns the joint L2 norm of all parameter gradients.
func globalNorm(params []nn.NamedParam) float64 {
	var ss float64
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		n := p.Value.Grad.Norm2()
		ss += n * n
	}
	return math.Sqrt(ss)
}
