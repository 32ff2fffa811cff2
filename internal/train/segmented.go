package train

import (
	"fmt"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// SegmentedBackward is the backward pass of every training step that bounds
// its tape: Edge-LLM's windowed tuning (the window [lo, hi] in one segment),
// the governor's recompute rung (the window in several) and gradient
// checkpointing, the baseline windowed tuning is measured against (the whole
// stack, lo = 0, hi = L-1). It returns the loss head computes from block hi's
// output and leaves the gradients accumulated on mod's parameters for
// Trainer.ApplyGrads.
//
// The span's W = hi-lo+1 blocks split into segments; segment s starts at
// block lo + s·W/segments. The step
//
//  1. freezes f's model m and runs tape-free to block lo and on to every
//     segment start, keeping only those boundary activations;
//  2. makes exactly mod.Params() trainable;
//  3. runs the top segment and head taped from its boundary and
//     backpropagates the loss;
//  4. re-runs each lower segment taped, deepest first, seeded with the
//     gradient the segment above left on its input;
//  5. freezes mod again, so m leaves as frozen as it came in.
//
// Step 1 is f's no-grad forward: the top segment's input is f's residual,
// the lower ones copies. A segment's input is a constant unless something
// below it trains: the segment beneath, or at lo = 0 an embedding mod holds,
// which then re-runs taped with the bottom segment. Each segment's graph goes
// back to the arena as soon as it is consumed, so the live tape never spans
// more than one segment. Gradients and loss equal one full backward pass's
// bit for bit: each boundary's gradient is accumulated in the order the full
// graph would accumulate it, and the segments' parameter sets are disjoint.
func SegmentedBackward(f *nn.Forward, inputs [][]int, lo, hi, segments int, head func(*ag.Value) *ag.Value, mod nn.Module) float64 {
	m := f.Model()
	w := hi - lo + 1
	if lo < 0 || hi >= len(m.Blocks) || w < 1 {
		panic(fmt.Sprintf("train: block span [%d,%d] out of [0,%d)", lo, hi, len(m.Blocks)))
	}
	if segments < 1 || segments > w {
		panic(fmt.Sprintf("train: segments %d out of [1,%d]", segments, w))
	}
	b, t := len(inputs), len(inputs[0])
	start := func(s int) int { return lo + s*w/segments }
	forward := func(x *ag.Value, s int) *ag.Value {
		for i := start(s); i < start(s+1); i++ {
			x = m.Blocks[i].Forward(x, b, t)
		}
		return x
	}

	m.SetAllTrainable(false)
	f.Embed(inputs)
	bounds := make([]*tensor.Tensor, segments)
	for s := range bounds {
		if bounds[s] = f.RunTo(start(s)); s < segments-1 {
			bounds[s] = bounds[s].Clone()
		}
	}

	nn.SetTrainable(mod, true)
	defer nn.SetTrainable(mod, false)
	embedTrains := lo == 0 && (m.TokEmb.W.RequiresGrad || m.PosEmb.W.RequiresGrad)
	var loss float64
	var above *ag.Value // the input of the segment above, holding its gradient
	for s := segments - 1; s >= 0; s-- {
		var in *ag.Value
		switch {
		case s > 0:
			in = ag.Param(bounds[s])
		case embedTrains:
			in = m.Embed(inputs)
		default:
			in = ag.Const(bounds[0])
		}
		y := forward(in, s)
		if above == nil {
			y = head(y)
			loss = float64(y.Data.Data[0])
			y.Backward()
		} else {
			y.BackwardWithGrad(above.Grad)
			above.ZeroGrad()
		}
		ag.ReleaseTape(y)
		above = in
	}
	return loss
}

// CheckpointedSpec prices segment recompute: the tape never holds more than
// one segment, ⌈TapeBlocks/segments⌉ blocks (plus the loss head, which
// EstimateMemory already counts). segments ≤ 1 is the plain step.
func CheckpointedSpec(spec MemorySpec, segments int) MemorySpec {
	if segments > 1 {
		spec.TapeBlocks = (spec.TapeBlocks + segments - 1) / segments
	}
	return spec
}
