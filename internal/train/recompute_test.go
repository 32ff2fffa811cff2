package train

import (
	"math"
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func recomputeModel(seed int64) *nn.Model {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 4, Hidden: 32, MaxSeq: 16, ExitHeads: false}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

func TestCheckpointedStepMatchesFullBackprop(t *testing.T) {
	inputs := [][]int{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}}
	targets := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

	// Reference: full backprop.
	ref := recomputeModel(80)
	ref.SetAllTrainable(true)
	refLoss := ag.CrossEntropy(ref.Logits(inputs), targets, -1)
	refVal := float64(refLoss.Data.Data[0])
	refLoss.Backward()

	for _, segments := range []int{1, 2, 4} {
		m := recomputeModel(80) // identical weights
		m.SetAllTrainable(true)
		val := CheckpointedStep(m, inputs, targets, segments)
		if math.Abs(val-refVal) > 1e-5 {
			t.Fatalf("segments=%d: loss %v vs reference %v", segments, val, refVal)
		}
		refPs, ps := ref.Params(), m.Params()
		for i := range ps {
			if (ps[i].Value.Grad == nil) != (refPs[i].Value.Grad == nil) {
				t.Fatalf("segments=%d: grad presence mismatch at %s", segments, ps[i].Name)
			}
			if ps[i].Value.Grad == nil {
				continue
			}
			if !tensor.AllClose(ps[i].Value.Grad, refPs[i].Value.Grad, 1e-3, 1e-5) {
				t.Fatalf("segments=%d: grad mismatch at %s", segments, ps[i].Name)
			}
		}
	}
}

func TestCheckpointedStepTrains(t *testing.T) {
	m := recomputeModel(81)
	m.SetAllTrainable(true)
	opt := NewAdamW(0)
	inputs := [][]int{{1, 3, 5, 7}}
	targets := []int{3, 5, 7, 9}
	var first, last float64
	for i := 0; i < 40; i++ {
		last = CheckpointedStep(m, inputs, targets, 2)
		if i == 0 {
			first = last
		}
		opt.Step(m.Params(), 0.01)
		nn.ZeroGrads(m)
	}
	if last >= first {
		t.Fatalf("checkpointed training did not reduce loss: %v → %v", first, last)
	}
}

func TestCheckpointedStepValidation(t *testing.T) {
	m := recomputeModel(82)
	defer func() {
		if recover() == nil {
			t.Fatal("segments > layers must panic")
		}
	}()
	CheckpointedStep(m, [][]int{{1}}, []int{2}, 9)
}

func TestCheckpointedSpecBoundsTape(t *testing.T) {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 8, Hidden: 32, MaxSeq: 16}
	full := VanillaSpec(cfg, 2, 8, 8)
	ck := CheckpointedSpec(full, 4)
	if ck.TapeBlocks != 2 {
		t.Fatalf("4 segments over 8 layers must tape 2 blocks, got %d", ck.TapeBlocks)
	}
	if EstimateMemory(ck).Activations >= EstimateMemory(full).Activations {
		t.Fatal("checkpointing must cut activation memory")
	}
}
