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

// Logits runs the full model on the autograd forward and returns the
// final-head logits (batch·seq, vocab), recording a tape over whatever
// parameters are trainable: the forward of full fine-tuning and of LoRA,
// whose Linear.Adapter hooks it runs. A pass that takes no gradient runs on
// Forward instead, which computes the same bits.
func (m *Model) Logits(batch [][]int) *ag.Value {
	_, _, b, t := flatten(batch)
	x := m.Embed(batch)
	for _, blk := range m.Blocks {
		x = blk.Forward(x, b, t)
	}
	return m.LMHead.Forward(m.Norm.Forward(x))
}

// SetAllTrainable flips RequiresGrad on every parameter Params lists,
// walking the model in place rather than building the named list, so the
// per-step freeze of a tuning step allocates nothing.
func (m *Model) SetAllTrainable(trainable bool) {
	for _, v := range [...]*ag.Value{m.TokEmb.W, m.PosEmb.W, m.Norm.Gain, m.LMHead.W} {
		v.RequiresGrad = trainable
	}
	for _, b := range m.Blocks {
		b.Norm1.Gain.RequiresGrad, b.Norm2.Gain.RequiresGrad = trainable, trainable
		for _, l := range b.linears() {
			l.W.RequiresGrad = trainable
		}
	}
	for _, e := range m.Exits {
		e.Norm.Gain.RequiresGrad, e.Proj.W.RequiresGrad = trainable, trainable
	}
}
