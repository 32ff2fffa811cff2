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

// checkpointedStep is gradient checkpointing as the grad-ckpt baseline runs
// it: the whole stack in segments, every parameter trainable, the loss at the
// final head.
func checkpointedStep(m *nn.Model, inputs [][]int, targets []int, segments int) float64 {
	head := func(h *ag.Value) *ag.Value {
		return ag.CrossEntropy(m.LMHead.Forward(m.Norm.Forward(h)), targets, -1)
	}
	return SegmentedBackward(m, inputs, 0, len(m.Blocks)-1, segments, head, m)
}

// TestCheckpointedStepMatchesFullBackprop is the differential reference for
// SegmentedBackward: over the whole stack in 1 to 4 segments, the loss and
// every gradient equal one full backward pass bit for bit, and the model is
// left frozen.
func TestCheckpointedStepMatchesFullBackprop(t *testing.T) {
	inputs := [][]int{{1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12}}
	targets := []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}

	// Reference: full backprop.
	ref := recomputeModel(80)
	ref.SetAllTrainable(true)
	refLoss := ag.CrossEntropy(ref.Logits(inputs), targets, -1)
	refVal := float64(refLoss.Data.Data[0])
	refLoss.Backward()

	for segments := 1; segments <= 4; segments++ {
		m := recomputeModel(80) // identical weights
		val := checkpointedStep(m, inputs, targets, segments)
		if math.Float64bits(val) != math.Float64bits(refVal) {
			t.Fatalf("segments=%d: loss %v vs reference %v", segments, val, refVal)
		}
		refPs, ps := ref.Params(), m.Params()
		for i := range ps {
			if ps[i].Value.RequiresGrad {
				t.Fatalf("segments=%d: %s left trainable", segments, ps[i].Name)
			}
			g, rg := ps[i].Value.Grad, refPs[i].Value.Grad
			if (g == nil) != (rg == nil) {
				t.Fatalf("segments=%d: grad presence mismatch at %s", segments, ps[i].Name)
			}
			if g == nil {
				continue
			}
			for j := range g.Data {
				if math.Float32bits(g.Data[j]) != math.Float32bits(rg.Data[j]) {
					t.Fatalf("segments=%d: %s grad element %d: %v vs reference %v",
						segments, ps[i].Name, j, g.Data[j], rg.Data[j])
				}
			}
		}
	}
}

func TestCheckpointedStepTrains(t *testing.T) {
	m := recomputeModel(81)
	opt := NewAdamW(0)
	inputs := [][]int{{1, 3, 5, 7}}
	targets := []int{3, 5, 7, 9}
	var first, last float64
	for i := 0; i < 40; i++ {
		last = checkpointedStep(m, inputs, targets, 2)
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
	for _, c := range []struct{ lo, hi, segments int }{
		{0, 3, 9}, // more segments than blocks
		{0, 3, 0},
		{2, 4, 1}, // span past the stack
		{3, 2, 1}, // empty span
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("span [%d,%d] in %d segments must panic", c.lo, c.hi, c.segments)
				}
			}()
			SegmentedBackward(m, [][]int{{1}}, c.lo, c.hi, c.segments, func(h *ag.Value) *ag.Value { return h }, m)
		}()
	}
}

func TestCheckpointedSpecBoundsTape(t *testing.T) {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 8, Hidden: 32, MaxSeq: 16}
	full := VanillaSpec(cfg, 2, 8)
	ck := CheckpointedSpec(full, 4)
	if ck.TapeBlocks != 2 {
		t.Fatalf("4 segments over 8 layers must tape 2 blocks, got %d", ck.TapeBlocks)
	}
	if EstimateMemory(ck).Activations >= EstimateMemory(full).Activations {
		t.Fatal("checkpointing must cut activation memory")
	}
	// A window's recompute tape is the same formula: ⌈W/S⌉ blocks.
	for _, c := range []struct{ window, segments, tape int }{{3, 1, 3}, {3, 2, 2}, {4, 2, 2}, {5, 4, 2}, {2, 0, 2}} {
		if got := WindowSpec(cfg, 2, 8, c.window, c.segments, nil, nil).TapeBlocks; got != c.tape {
			t.Errorf("window %d in %d segments tapes %d blocks, want %d", c.window, c.segments, got, c.tape)
		}
	}
}
