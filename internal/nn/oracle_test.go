package nn

import (
	"fmt"

	ag "edgellm/internal/autograd"
)

// The autograd forwards below are the oracle Forward is held to: block by
// block through Block.Forward and the heads' Forward, as a training step
// runs them. No program calls them; Forward is the no-grad form.

// hiddenAt runs the model from the embedding through blocks [0, upTo) and
// returns the hidden states. upTo == Layers gives the full stack.
func (m *Model) hiddenAt(batch [][]int, upTo int) *ag.Value {
	if upTo < 0 || upTo > len(m.Blocks) {
		panic(fmt.Sprintf("nn: hiddenAt upTo %d out of range [0,%d]", upTo, len(m.Blocks)))
	}
	_, _, b, t := flatten(batch)
	x := m.Embed(batch)
	for i := 0; i < upTo; i++ {
		x = m.Blocks[i].Forward(x, b, t)
	}
	return x
}

// logitsFrom runs blocks [from, Layers) and the final head on x, block
// from's input of shape (batch·seq, dim), and returns the final-head
// logits. from == Layers applies the head alone.
func (m *Model) logitsFrom(x *ag.Value, from, batch, seq int) *ag.Value {
	if from < 0 || from > len(m.Blocks) {
		panic(fmt.Sprintf("nn: logitsFrom from %d out of range [0,%d]", from, len(m.Blocks)))
	}
	for _, blk := range m.Blocks[from:] {
		x = blk.Forward(x, batch, seq)
	}
	return m.LMHead.Forward(m.Norm.Forward(x))
}

// allExitLogits runs the full stack once and returns the logits of every
// exit head plus the final head (last element).
func (m *Model) allExitLogits(batch [][]int) []*ag.Value {
	if len(m.Exits) == 0 {
		panic("nn: model built without exit heads")
	}
	_, _, b, t := flatten(batch)
	x := m.Embed(batch)
	out := make([]*ag.Value, 0, len(m.Blocks)+1)
	for i, blk := range m.Blocks {
		x = blk.Forward(x, b, t)
		out = append(out, m.Exits[i].Forward(x))
	}
	out = append(out, m.LMHead.Forward(m.Norm.Forward(x)))
	return out
}
