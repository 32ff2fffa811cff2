package train

import (
	"math"
	"slices"
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

func nanLoss() *ag.Value { return ag.Const(tensor.Scalar(float32(math.NaN()))) }
func infLoss() *ag.Value { return ag.Const(tensor.Scalar(float32(math.Inf(1)))) }

// TestStepSkipsNonFiniteLoss: a NaN or Inf loss must leave weights and the
// step counter untouched.
func TestStepSkipsNonFiniteLoss(t *testing.T) {
	for _, loss := range []*ag.Value{nanLoss(), infLoss()} {
		q := &quad{w: ag.Param(tensor.Full(3, 4))}
		before := q.w.Data.Clone()
		tr := NewTrainer(NewAdamW(0), 0.1, 1.0)
		got := tr.Step(q, loss)
		if finite(got) {
			t.Fatalf("Step returned finite loss %v for a non-finite input", got)
		}
		for i := range before.Data {
			if q.w.Data.Data[i] != before.Data[i] {
				t.Fatal("non-finite step mutated the weights")
			}
		}
		if tr.StepCount() != 0 {
			t.Fatalf("non-finite step advanced the counter to %d", tr.StepCount())
		}
	}
}

// TestStepAbortsAfterMaxBadSteps: MaxBadSteps consecutive non-finite steps
// must abort with a *DivergenceError panic carrying the streak length.
func TestStepAbortsAfterMaxBadSteps(t *testing.T) {
	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	tr := NewTrainer(NewAdamW(0), 0.1, 1.0)
	tr.MaxBadSteps = 3
	tr.Step(q, nanLoss())
	tr.Step(q, nanLoss())
	defer func() {
		r := recover()
		de, ok := r.(*DivergenceError)
		if !ok {
			t.Fatalf("recover() = %v, want *DivergenceError", r)
		}
		if de.Consecutive != 3 {
			t.Fatalf("Consecutive = %d, want 3", de.Consecutive)
		}
	}()
	tr.Step(q, nanLoss())
}

// TestFiniteStepResetsBadStreak: interleaving good steps must keep the
// streak below the abort threshold forever.
func TestFiniteStepResetsBadStreak(t *testing.T) {
	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	tr := NewTrainer(NewAdamW(0), 0.1, 1.0)
	tr.MaxBadSteps = 3
	for i := 0; i < 10; i++ {
		tr.Step(q, nanLoss())
		tr.Step(q, nanLoss())
		tr.Step(q, q.loss()) // resets the streak
	}
	if tr.StepCount() != 10 {
		t.Fatalf("step count = %d, want 10", tr.StepCount())
	}
}

// TestZeroMaxBadStepsDisablesAbort: the skip still happens, the abort never.
func TestZeroMaxBadStepsDisablesAbort(t *testing.T) {
	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	tr := NewTrainer(NewAdamW(0), 0.1, 1.0)
	tr.MaxBadSteps = 0
	for i := 0; i < 50; i++ {
		tr.Step(q, nanLoss())
	}
	if tr.StepCount() != 0 {
		t.Fatalf("disabled guard still applied %d updates", tr.StepCount())
	}
}

// TestApplyGradsSkipsNonFiniteGradients: a NaN gradient reaching ApplyGrads
// must skip the update and clear the gradients.
func TestApplyGradsSkipsNonFiniteGradients(t *testing.T) {
	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	before := q.w.Data.Clone()
	g := q.w.InitGrad()
	g.Data[1] = float32(math.NaN())
	tr := NewTrainer(NewAdamW(0), 0.1, 1.0)
	tr.ApplyGrads(q, 1)
	for i := range before.Data {
		if q.w.Data.Data[i] != before.Data[i] {
			t.Fatal("non-finite gradient mutated the weights")
		}
	}
	if q.w.Grad != nil {
		t.Fatal("skipped step must still clear the gradients")
	}
	if tr.StepCount() != 0 {
		t.Fatal("skipped step advanced the counter")
	}
}

// weightBits flattens every parameter of m to its float32 bits.
func weightBits(m nn.Module) []uint32 {
	var out []uint32
	for _, p := range m.Params() {
		for _, v := range p.Value.Data.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

// TestCheckpointedStepSkipsNonFiniteLoss: with clipping off and no recorder
// the gradient norm is never computed, so the loss value is the only sign of
// a poisoned batch. A NaN loss through grad-ckpt (SegmentedBackward, then
// ApplyGrads) must leave every weight and the step counter alone and count
// toward the bad-step streak, as Step does.
func TestCheckpointedStepSkipsNonFiniteLoss(t *testing.T) {
	m := recomputeModel(83)
	const poison = 15 // a token whose embedding row is NaN
	m.TokEmb.W.Data.Row(poison)[0] = float32(math.NaN())
	before := weightBits(m)
	tr := NewTrainer(NewAdamW(0), 0.1, 0)
	for i := 1; i <= 2; i++ {
		loss := checkpointedStep(m, [][]int{{1, 2, poison, 4}}, []int{2, 3, 4, 5}, 2)
		if finite(loss) {
			t.Fatalf("poisoned batch gave finite loss %v", loss)
		}
		tr.ApplyGrads(m, loss)
		if tr.badStreak != i {
			t.Fatalf("bad streak %d after %d poisoned steps", tr.badStreak, i)
		}
	}
	if !slices.Equal(before, weightBits(m)) {
		t.Fatal("poisoned steps mutated the weights")
	}
	if tr.StepCount() != 0 {
		t.Fatalf("poisoned steps advanced the counter to %d", tr.StepCount())
	}
}

// TestDivergenceGuardMetrics: skipped steps and aborts must be visible
// through obsv.
func TestDivergenceGuardMetrics(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	tr := NewTrainer(NewAdamW(0), 0.1, 1.0)
	tr.MaxBadSteps = 2
	tr.Step(q, nanLoss())
	func() {
		defer func() {
			if _, ok := recover().(*DivergenceError); !ok {
				t.Fatal("expected divergence abort")
			}
		}()
		tr.Step(q, nanLoss())
	}()
	snap := rec.Snapshot()
	if snap.Counters["train.nonfinite_steps"] != 2 {
		t.Fatalf("train.nonfinite_steps = %d, want 2", snap.Counters["train.nonfinite_steps"])
	}
	if snap.Counters["train.divergence_aborts"] != 1 {
		t.Fatalf("train.divergence_aborts = %d, want 1", snap.Counters["train.divergence_aborts"])
	}
	if snap.Gauges["train.bad_streak"] != 2 {
		t.Fatalf("train.bad_streak gauge = %v, want 2", snap.Gauges["train.bad_streak"])
	}
}

// TestDivergenceErrorIsNotRetryable: a divergence, which the runner reports
// as its experiment's failed row, renders an error string.
func TestDivergenceErrorIsNotRetryable(t *testing.T) {
	var err error = &DivergenceError{Consecutive: 5, LastLoss: math.NaN()}
	if err.Error() == "" {
		t.Fatal("empty error string")
	}
}

var _ nn.Module = (*quad)(nil)
