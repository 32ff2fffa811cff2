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

// staleArena installs a fresh arena and leaves it full of stale buffers:
// full and checkpointed steps of another model over batches of other shapes
// (the tests' own shape last), every graph released with its last contents
// in place. The arena hands its buffers out in a shuffled order
// (tensor.Pool.ShuffleFree), so an op that reads a buffer it did not write
// reads other contents than on a fresh arena, whose last-in, first-out
// order returns the buffer the step itself put back. A run after it must
// equal the same run on a fresh arena bit for bit.
func staleArena() {
	ag.SetPool(nil)
	ag.ActivePool().ShuffleFree(1)
	m := recomputeModel(99)
	tr := NewTrainer(NewAdamW(0.01), 0.05, 1.0)
	for _, inputs := range [][][]int{{{3, 1, 4, 1, 5}}, {{9, 2, 6}, {5, 3, 5}, {8, 9, 7}}, poolInputs} {
		var targets []int
		for _, seq := range inputs {
			for _, tok := range seq {
				targets = append(targets, (tok*7+3)%16)
			}
		}
		m.SetAllTrainable(true)
		tr.Step(m, ag.CrossEntropy(m.Logits(inputs), targets, -1))
		tr.ApplyGrads(m, checkpointedStep(m, inputs, targets, 2))
	}
}

// TestDeterminismStepFreshVsStaleArena is the end-to-end arena guarantee: a
// multi-step training run is byte-identical on a fresh arena and on a stale
// one, in both the loss series and every final parameter.
func TestDeterminismStepFreshVsStaleArena(t *testing.T) {
	const steps = 5
	ag.SetPool(nil)
	freshLoss, freshParams := runTrainingSteps(21, steps)
	staleArena()
	staleLoss, staleParams := runTrainingSteps(21, steps)

	for i := range freshLoss {
		if freshLoss[i] != staleLoss[i] {
			t.Fatalf("loss at step %d differs: %x vs %x", i, freshLoss[i], staleLoss[i])
		}
	}
	for p := range freshParams {
		for i := range freshParams[p] {
			if freshParams[p][i] != staleParams[p][i] {
				t.Fatalf("param %d element %d differs fresh vs stale arena", p, i)
			}
		}
	}
}

// TestDeterminismCheckpointedStepPool covers the recompute path's arena
// integration: segment tapes are pooled and released mid-step, and the
// accumulated gradients on a stale arena must match a fresh one's bitwise.
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

	ag.SetPool(nil)
	m1 := tinyModel(9)
	lossFresh := checkpointedStep(m1, poolInputs, poolTargets, 2)
	fresh := gradBits(m1)

	staleArena()
	m2 := tinyModel(9)
	lossStale := checkpointedStep(m2, poolInputs, poolTargets, 2)
	stale := gradBits(m2)

	if math.Float64bits(lossFresh) != math.Float64bits(lossStale) {
		t.Fatalf("checkpointed loss differs: %v vs %v", lossFresh, lossStale)
	}
	for p := range fresh {
		if (fresh[p] == nil) != (stale[p] == nil) {
			t.Fatalf("param %d grad presence differs", p)
		}
		for i := range fresh[p] {
			if fresh[p][i] != stale[p][i] {
				t.Fatalf("param %d grad element %d differs fresh vs stale arena", p, i)
			}
		}
	}
}

// stepAllocPin is the steady-state allocation budget for one full-backprop
// training step on the tiny test model. The remaining allocations are graph
// bookkeeping (Value structs, closures, topo-sort state) — tensor buffers
// all come from the arena. Headroom over the measured value (~570 on
// go1.24) keeps the pin stable across Go releases.
const stepAllocPin = 850

// TestStepAllocsWithArena pins steady-state allocations per training step
// and asserts that a warm step draws every tensor buffer from the arena: once
// one step has stocked a fresh arena, further steps miss it zero times.
func TestStepAllocsWithArena(t *testing.T) {
	m := tinyModel(3)
	tr := NewTrainer(NewAdamW(0.01), 0.01, 1.0)
	step := func() {
		loss := ag.CrossEntropy(m.Logits(poolInputs), poolTargets, -1)
		tr.Step(m, loss)
	}
	step() // allocate optimizer state
	pool := tensor.NewPool()
	ag.SetPool(pool)
	coldBytes := allocBytes(step)
	misses := pool.Stats().Misses
	warmBytes := allocBytes(func() {
		for i := 0; i < 10; i++ {
			step()
		}
	})
	if got := pool.Stats().Misses - misses; got != 0 {
		t.Fatalf("warm steps missed the arena %d times", got)
	}

	allocs := testing.AllocsPerRun(10, step)
	t.Logf("steady-state: %.0f allocs/step, %d bytes/step (%d on the fresh arena's first)", allocs, warmBytes/10, coldBytes)
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
