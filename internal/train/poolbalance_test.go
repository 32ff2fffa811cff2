package train

import (
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// panicOpt is an Optimizer stub that panics on its Nth Step call —
// standing in for any mid-update crash (kernel bug, injected fault).
type panicOpt struct{ n, calls int }

func (o *panicOpt) Step(params []nn.NamedParam, lr float32) {
	o.calls++
	if o.calls >= o.n {
		panic("panicOpt: injected optimizer crash")
	}
}

// TestStepPanicReleasesPool: a panic mid-step (here from the optimizer,
// while the loss tape's pooled buffers are still live) must not strand
// arena bytes — Trainer.Step's recovery path releases the tape before
// re-panicking, so bytes-in-use returns to the pre-step level.
func TestStepPanicReleasesPool(t *testing.T) {
	pool := tensor.NewPool()
	ag.SetPool(pool)
	defer ag.SetPool(nil)

	m := tinyModel(7)
	tr := NewTrainer(&panicOpt{n: 2}, 0.01, 1.0)

	// One clean step to establish the steady-state baseline.
	tr.Step(m, ag.CrossEntropy(m.Logits(poolInputs), poolTargets, -1))
	baseline := pool.Stats().BytesInUse

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("optimizer panic did not propagate")
			}
		}()
		tr.Step(m, ag.CrossEntropy(m.Logits(poolInputs), poolTargets, -1))
	}()

	if got := pool.Stats().BytesInUse; got != baseline {
		t.Fatalf("pool bytes-in-use after panic = %d, want baseline %d", got, baseline)
	}
	// Gradients were cleared too: the next clean run starts from scratch.
	for _, p := range m.Params() {
		if p.Value.Grad != nil {
			t.Fatalf("gradient %s survived the panic recovery", p.Name)
		}
	}
}

// TestApplyGradsPanicClearsGrads: same hygiene on the accumulate-then-apply
// path used by checkpointed recompute.
func TestApplyGradsPanicClearsGrads(t *testing.T) {
	pool := tensor.NewPool()
	ag.SetPool(pool)
	defer ag.SetPool(nil)

	m := tinyModel(8)
	tr := NewTrainer(&panicOpt{n: 1}, 0.01, 1.0)
	loss := checkpointedStep(m, poolInputs, poolTargets, 2)

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("optimizer panic did not propagate")
			}
		}()
		tr.ApplyGrads(m, loss)
	}()

	for _, p := range m.Params() {
		if p.Value.Grad != nil {
			t.Fatalf("gradient %s survived the ApplyGrads panic recovery", p.Name)
		}
	}
}

// TestCheckpointedStepPoolBalanced: every segment tape a checkpointed step
// allocates must be returned to the arena by the time SegmentedBackward
// (plus ApplyGrads) completes — the regression that motivated the tape-aux
// release path leaked ~2 KiB per step.
func TestCheckpointedStepPoolBalanced(t *testing.T) {
	pool := tensor.NewPool()
	ag.SetPool(pool)
	defer ag.SetPool(nil)

	m := tinyModel(11)
	tr := NewTrainer(NewAdamW(0.01), 0.01, 1.0)
	for i := 0; i < 4; i++ {
		tr.ApplyGrads(m, checkpointedStep(m, poolInputs, poolTargets, 2))
		if got := pool.Stats().BytesInUse; got != 0 {
			t.Fatalf("step %d: %d pooled bytes still in use after ApplyGrads", i, got)
		}
	}
}
