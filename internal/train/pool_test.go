package train

import (
	"math"
	"runtime"
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

var (
	poolInputs  = [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 1, 3}}
	poolTargets = []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 1, 3, 5}
)

// runTrainingSteps trains a fresh tiny model for n full-backprop steps and
// returns the bitwise loss series and final parameter bits.
func runTrainingSteps(seed int64, n int) (losses []uint64, params [][]uint32) {
	m := tinyModel(seed)
	tr := NewTrainer(NewAdamW(0.01), 0.01, 1.0)
	for i := 0; i < n; i++ {
		loss := ag.CrossEntropy(m.Logits(poolInputs), poolTargets, -1)
		losses = append(losses, math.Float64bits(tr.Step(m, loss)))
	}
	for _, p := range m.Params() {
		bits := make([]uint32, len(p.Value.Data.Data))
		for i, v := range p.Value.Data.Data {
			bits[i] = math.Float32bits(v)
		}
		params = append(params, bits)
	}
	return losses, params
}

// TestDeterminismStepPoolOnVsOff is the end-to-end arena guarantee: a
// multi-step training run is byte-identical with the pool on and off, in
// both the loss series and every final parameter.
func TestDeterminismStepPoolOnVsOff(t *testing.T) {
	const steps = 5
	offLoss, offParams := runTrainingSteps(21, steps)

	ag.SetPool(tensor.NewPool())
	defer ag.SetPool(nil)
	onLoss, onParams := runTrainingSteps(21, steps)

	for i := range offLoss {
		if offLoss[i] != onLoss[i] {
			t.Fatalf("loss at step %d differs: %x vs %x", i, offLoss[i], onLoss[i])
		}
	}
	for p := range offParams {
		for i := range offParams[p] {
			if offParams[p][i] != onParams[p][i] {
				t.Fatalf("param %d element %d differs pool-on vs pool-off", p, i)
			}
		}
	}
}

// TestDeterminismCheckpointedStepPool covers the recompute path's arena
// integration: segment tapes are pooled and released mid-step, and the
// accumulated gradients must still match the pool-off run bitwise.
func TestDeterminismCheckpointedStepPool(t *testing.T) {
	gradBits := func(m *nn.Model) [][]uint32 {
		var out [][]uint32
		for _, p := range m.Params() {
			if p.Value.Grad == nil {
				out = append(out, nil)
				continue
			}
			bits := make([]uint32, len(p.Value.Grad.Data))
			for i, v := range p.Value.Grad.Data {
				bits[i] = math.Float32bits(v)
			}
			out = append(out, bits)
		}
		return out
	}

	m1 := tinyModel(9)
	lossOff := checkpointedStep(m1, poolInputs, poolTargets, 2)
	off := gradBits(m1)

	ag.SetPool(tensor.NewPool())
	defer ag.SetPool(nil)
	m2 := tinyModel(9)
	lossOn := checkpointedStep(m2, poolInputs, poolTargets, 2)
	on := gradBits(m2)

	if math.Float64bits(lossOff) != math.Float64bits(lossOn) {
		t.Fatalf("checkpointed loss differs: %v vs %v", lossOff, lossOn)
	}
	for p := range off {
		if (off[p] == nil) != (on[p] == nil) {
			t.Fatalf("param %d grad presence differs", p)
		}
		for i := range off[p] {
			if off[p][i] != on[p][i] {
				t.Fatalf("param %d grad element %d differs pool-on vs pool-off", p, i)
			}
		}
	}
}

// stepAllocPin is the steady-state allocation budget for one full-backprop
// training step on the tiny test model with the arena on. The remaining
// allocations are graph bookkeeping (Value structs, closures, topo-sort
// state) — tensor buffers all come from the arena. Headroom over the
// measured value (~570 on go1.24) keeps the pin stable across Go releases;
// the guarded quantity is the ~8× drop in allocated bytes per step, which
// the test asserts separately.
const stepAllocPin = 850

// TestStepAllocsWithArena pins steady-state allocations per training step
// with the arena enabled, and asserts the arena cuts allocated bytes per
// step by at least 5×.
func TestStepAllocsWithArena(t *testing.T) {
	step := func(m *nn.Model, tr *Trainer) {
		loss := ag.CrossEntropy(m.Logits(poolInputs), poolTargets, -1)
		tr.Step(m, loss)
	}

	// Bytes per step without the arena.
	mOff := tinyModel(3)
	trOff := NewTrainer(NewAdamW(0.01), 0.01, 1.0)
	step(mOff, trOff) // allocate optimizer state outside the window
	offBytes := allocBytes(func() {
		for i := 0; i < 10; i++ {
			step(mOff, trOff)
		}
	})

	ag.SetPool(tensor.NewPool())
	defer ag.SetPool(nil)
	mOn := tinyModel(3)
	trOn := NewTrainer(NewAdamW(0.01), 0.01, 1.0)
	step(mOn, trOn)
	step(mOn, trOn) // warm: second step runs fully on recycled buffers
	onBytes := allocBytes(func() {
		for i := 0; i < 10; i++ {
			step(mOn, trOn)
		}
	})

	if onBytes*5 > offBytes {
		t.Fatalf("arena saves less than 5× bytes per step: %d on vs %d off", onBytes, offBytes)
	}

	allocs := testing.AllocsPerRun(10, func() { step(mOn, trOn) })
	t.Logf("steady-state: %.0f allocs/step, %d bytes/10 steps (vs %d without arena)", allocs, onBytes, offBytes)
	if allocs > stepAllocPin {
		t.Fatalf("steady-state allocations per step %.0f exceed pin %d", allocs, stepAllocPin)
	}
}

// allocBytes returns the heap bytes allocated while fn runs.
func allocBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
