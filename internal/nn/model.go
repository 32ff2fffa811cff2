package nn

import (
	"fmt"

	ag "edgellm/internal/autograd"
	"edgellm/internal/tensor"
)

// Config describes a decoder-only transformer.
type Config struct {
	// Vocab is the token vocabulary size.
	Vocab int
	// Dim is the residual-stream width.
	Dim int
	// Heads is the attention head count; Dim must be divisible by it.
	Heads int
	// Layers is the number of transformer blocks.
	Layers int
	// Hidden is the MLP hidden width (typically ~8/3·Dim for SwiGLU).
	Hidden int
	// MaxSeq is the maximum sequence length (learned positions).
	MaxSeq int
	// ExitHeads attaches an early-exit head (RMSNorm + vocab projection)
	// after every block, as required by Edge-LLM's adaptive layer tuning
	// and voting scheme. Without it only the final head exists.
	ExitHeads bool
	// TieExitHeads makes every exit share the final LM head's projection
	// weights (each exit keeps its own RMSNorm). This is the
	// memory-frugal variant for large vocabularies; untied heads give
	// each exit more capacity.
	TieExitHeads bool
}

// Validate returns an error describing the first invalid field, if any.
func (c Config) Validate() error {
	switch {
	case c.Vocab <= 0:
		return fmt.Errorf("nn: Vocab must be positive, got %d", c.Vocab)
	case c.Dim <= 0:
		return fmt.Errorf("nn: Dim must be positive, got %d", c.Dim)
	case c.Heads <= 0 || c.Dim%c.Heads != 0:
		return fmt.Errorf("nn: Heads must divide Dim, got %d/%d", c.Dim, c.Heads)
	case c.Layers <= 0:
		return fmt.Errorf("nn: Layers must be positive, got %d", c.Layers)
	case c.Hidden <= 0:
		return fmt.Errorf("nn: Hidden must be positive, got %d", c.Hidden)
	case c.MaxSeq <= 0:
		return fmt.Errorf("nn: MaxSeq must be positive, got %d", c.MaxSeq)
	}
	return nil
}

// ExitHead is the per-layer early-exit classifier used by adaptive layer
// tuning (loss at the top of the tuned window) and by voting inference.
type ExitHead struct {
	Norm *RMSNorm
	Proj *Linear
	// Tied marks Proj as shared with the model's final LM head; shared
	// weights are reported by the model, not by each exit.
	Tied bool
}

// Forward maps hidden states to vocab logits.
func (h *ExitHead) Forward(x *ag.Value) *ag.Value {
	return h.Proj.Forward(h.Norm.Forward(x))
}

// Params implements Module.
func (h *ExitHead) Params() []NamedParam {
	ps := prefix("norm", h.Norm.Params())
	if !h.Tied {
		ps = append(ps, prefix("proj", h.Proj.Params())...)
	}
	return ps
}

// Model is the decoder-only transformer. Blocks[i] is layer i;
// Exits[i] (when Config.ExitHeads) is the early-exit head reading the
// output of layer i. The final head (Norm+LMHead) reads the last layer.
type Model struct {
	Cfg    Config
	TokEmb *Embedding
	PosEmb *Embedding
	Blocks []*Block
	Exits  []*ExitHead
	Norm   *RMSNorm
	LMHead *Linear
}

// NewModel builds and initialises a model from cfg using the seeded RNG.
func NewModel(cfg Config, g *tensor.RNG) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	m := &Model{
		Cfg:    cfg,
		TokEmb: NewEmbedding(g, cfg.Vocab, cfg.Dim),
		PosEmb: NewEmbedding(g, cfg.MaxSeq, cfg.Dim),
		Norm:   NewRMSNorm(cfg.Dim),
		LMHead: NewLinear(g, cfg.Dim, cfg.Vocab),
	}
	for i := 0; i < cfg.Layers; i++ {
		m.Blocks = append(m.Blocks, NewBlock(g, cfg.Dim, cfg.Heads, cfg.Hidden))
		if cfg.ExitHeads {
			exit := &ExitHead{Norm: NewRMSNorm(cfg.Dim), Tied: cfg.TieExitHeads}
			if cfg.TieExitHeads {
				exit.Proj = m.LMHead
			} else {
				exit.Proj = NewLinear(g, cfg.Dim, cfg.Vocab)
			}
			m.Exits = append(m.Exits, exit)
		}
	}
	return m
}

// Params implements Module.
func (m *Model) Params() []NamedParam {
	var ps []NamedParam
	ps = append(ps, prefix("tok", m.TokEmb.Params())...)
	ps = append(ps, prefix("pos", m.PosEmb.Params())...)
	for i, b := range m.Blocks {
		ps = append(ps, prefix(fmt.Sprintf("block%d", i), b.Params())...)
	}
	for i, e := range m.Exits {
		ps = append(ps, prefix(fmt.Sprintf("exit%d", i), e.Params())...)
	}
	ps = append(ps, prefix("norm", m.Norm.Params())...)
	ps = append(ps, prefix("lmhead", m.LMHead.Params())...)
	return ps
}

// flatten turns a batch of equal-length token sequences into the flat id
// slice used by the embedding layers, plus matching position ids.
func flatten(batch [][]int) (ids, pos []int, b, t int) {
	b = len(batch)
	if b == 0 {
		panic("nn: empty batch")
	}
	t = len(batch[0])
	ids = make([]int, 0, b*t)
	pos = make([]int, 0, b*t)
	for _, seq := range batch {
		if len(seq) != t {
			panic(fmt.Sprintf("nn: ragged batch: %d vs %d tokens", len(seq), t))
		}
		ids = append(ids, seq...)
		for p := 0; p < t; p++ {
			pos = append(pos, p)
		}
	}
	return ids, pos, b, t
}

// Embed maps a batch of token sequences to the layer-0 residual stream,
// shape (batch·seq, dim).
func (m *Model) Embed(batch [][]int) *ag.Value {
	ids, pos, _, t := flatten(batch)
	if t > m.Cfg.MaxSeq {
		panic(fmt.Sprintf("nn: sequence length %d exceeds MaxSeq %d", t, m.Cfg.MaxSeq))
	}
	return ag.Add(m.TokEmb.Forward(ids), m.PosEmb.Forward(pos))
}

// HiddenAt runs the model from the embedding through blocks [0, upTo)
// and returns the hidden states. upTo == Layers gives the full stack.
func (m *Model) HiddenAt(batch [][]int, upTo int) *ag.Value {
	if upTo < 0 || upTo > len(m.Blocks) {
		panic(fmt.Sprintf("nn: HiddenAt upTo %d out of range [0,%d]", upTo, len(m.Blocks)))
	}
	_, _, b, t := flatten(batch)
	x := m.Embed(batch)
	for i := 0; i < upTo; i++ {
		x = m.Blocks[i].Forward(x, b, t)
	}
	return x
}

// Logits runs the full model and returns final-head logits (batch·seq, vocab).
func (m *Model) Logits(batch [][]int) *ag.Value {
	_, _, b, t := flatten(batch)
	return m.LogitsFrom(m.Embed(batch), 0, b, t)
}

// LogitsFrom runs blocks [from, Layers) and the final head on x, block
// from's input of shape (batch·seq, dim), and returns the final-head
// logits. from == Layers applies the head alone.
func (m *Model) LogitsFrom(x *ag.Value, from, batch, seq int) *ag.Value {
	if from < 0 || from > len(m.Blocks) {
		panic(fmt.Sprintf("nn: LogitsFrom from %d out of range [0,%d]", from, len(m.Blocks)))
	}
	for _, blk := range m.Blocks[from:] {
		x = blk.Forward(x, batch, seq)
	}
	return m.LMHead.Forward(m.Norm.Forward(x))
}

// AllExitLogits runs the full stack once and returns the logits of every
// exit head plus the final head (last element). Used by voting inference.
func (m *Model) AllExitLogits(batch [][]int) []*ag.Value {
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

// SetAllTrainable flips RequiresGrad on every parameter.
func (m *Model) SetAllTrainable(trainable bool) { SetTrainable(m, trainable) }
