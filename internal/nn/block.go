package nn

import (
	ag "edgellm/internal/autograd"
	"edgellm/internal/tensor"
)

// Attention is pre-norm causal multi-head self-attention with separate
// query/key/value/output projections — the four weight matrices that the
// LUC compression pass targets per layer.
type Attention struct {
	Heads          int
	Wq, Wk, Wv, Wo *Linear
}

// NewAttention builds an attention module over dim channels and heads heads.
func NewAttention(g *tensor.RNG, dim, heads int) *Attention {
	mustDiv(dim, heads, "attention dim/heads")
	return &Attention{
		Heads: heads,
		Wq:    NewLinear(g, dim, dim),
		Wk:    NewLinear(g, dim, dim),
		Wv:    NewLinear(g, dim, dim),
		Wo:    NewLinear(g, dim, dim),
	}
}

// Forward applies attention to x of shape (batch·seq, dim).
func (a *Attention) Forward(x *ag.Value, batch, seq int) *ag.Value {
	q := a.Wq.Forward(x)
	k := a.Wk.Forward(x)
	v := a.Wv.Forward(x)
	o := ag.CausalAttention(q, k, v, batch, seq, a.Heads)
	return a.Wo.Forward(o)
}

// Params implements Module.
func (a *Attention) Params() []NamedParam {
	var ps []NamedParam
	ps = append(ps, prefix("wq", a.Wq.Params())...)
	ps = append(ps, prefix("wk", a.Wk.Params())...)
	ps = append(ps, prefix("wv", a.Wv.Params())...)
	ps = append(ps, prefix("wo", a.Wo.Params())...)
	return ps
}

// MLP is the SwiGLU feed-forward block: down( SiLU(x·gate) ⊙ (x·up) ).
type MLP struct {
	Gate, Up, Down *Linear
}

// NewMLP builds a SwiGLU MLP with the given hidden width.
func NewMLP(g *tensor.RNG, dim, hidden int) *MLP {
	return &MLP{
		Gate: NewLinear(g, dim, hidden),
		Up:   NewLinear(g, dim, hidden),
		Down: NewLinear(g, hidden, dim),
	}
}

// Forward applies the MLP to x of shape (rows, dim).
func (m *MLP) Forward(x *ag.Value) *ag.Value {
	return m.Down.Forward(ag.Mul(ag.SiLU(m.Gate.Forward(x)), m.Up.Forward(x)))
}

// Params implements Module.
func (m *MLP) Params() []NamedParam {
	var ps []NamedParam
	ps = append(ps, prefix("gate", m.Gate.Params())...)
	ps = append(ps, prefix("up", m.Up.Params())...)
	ps = append(ps, prefix("down", m.Down.Params())...)
	return ps
}

// Block is one pre-norm transformer layer:
// x = x + attn(norm1(x)); x = x + mlp(norm2(x)).
type Block struct {
	Norm1 *RMSNorm
	Attn  *Attention
	Norm2 *RMSNorm
	MLP   *MLP
}

// NewBlock builds a transformer block.
func NewBlock(g *tensor.RNG, dim, heads, hidden int) *Block {
	return &Block{
		Norm1: NewRMSNorm(dim),
		Attn:  NewAttention(g, dim, heads),
		Norm2: NewRMSNorm(dim),
		MLP:   NewMLP(g, dim, hidden),
	}
}

// Forward applies the block to x of shape (batch·seq, dim).
func (b *Block) Forward(x *ag.Value, batch, seq int) *ag.Value {
	x = ag.Add(x, b.Attn.Forward(b.Norm1.Forward(x), batch, seq))
	return ag.Add(x, b.MLP.Forward(b.Norm2.Forward(x)))
}

// Params implements Module.
func (b *Block) Params() []NamedParam {
	var ps []NamedParam
	ps = append(ps, prefix("norm1", b.Norm1.Params())...)
	ps = append(ps, prefix("attn", b.Attn.Params())...)
	ps = append(ps, prefix("norm2", b.Norm2.Params())...)
	ps = append(ps, prefix("mlp", b.MLP.Params())...)
	return ps
}

// linears returns the block's seven dense layers in WeightMatrices order.
func (b *Block) linears() [7]*Linear {
	return [7]*Linear{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.Attn.Wo, b.MLP.Gate, b.MLP.Up, b.MLP.Down}
}

// WeightMatrices returns the block's seven 2-D weight tensors in a stable
// order. These are the tensors the LUC pass prunes and quantises; norms and
// biases are deliberately excluded (they are tiny and precision-critical).
func (b *Block) WeightMatrices() []*tensor.Tensor {
	return []*tensor.Tensor{
		b.Attn.Wq.W.Data, b.Attn.Wk.W.Data, b.Attn.Wv.W.Data, b.Attn.Wo.W.Data,
		b.MLP.Gate.W.Data, b.MLP.Up.W.Data, b.MLP.Down.W.Data,
	}
}
