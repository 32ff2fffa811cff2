// Package nn implements the decoder-only transformer used as the LLM under
// adaptation in this Edge-LLM reproduction: token/position embeddings,
// RMSNorm, causal multi-head attention, SwiGLU MLPs, and — specific to
// Edge-LLM — an early-exit head attached to every transformer block so that
// the adaptive layer tuning & voting scheme can compute losses (and later
// vote) at intermediate depths.
package nn

import (
	"fmt"

	ag "edgellm/internal/autograd"
	"edgellm/internal/tensor"
)

// NamedParam pairs a trainable value with a stable, hierarchical name
// (e.g. "block3.attn.wq"). Optimizers key their state on the name; the
// compression passes select weights by name patterns.
type NamedParam struct {
	Name  string
	Value *ag.Value
}

// Module is anything exposing trainable parameters.
type Module interface {
	// Params returns all parameters, prefixed with the module's name.
	Params() []NamedParam
}

// SetTrainable flips RequiresGrad on all parameters of a module. The
// adaptive layer tuner uses this each iteration to freeze everything
// outside the current layer window, which (see internal/autograd) prevents
// the tape — and therefore activation memory — from extending below it.
func SetTrainable(m Module, trainable bool) {
	for _, p := range m.Params() {
		p.Value.RequiresGrad = trainable
	}
}

// ZeroGrads clears the gradients of all parameters of a module.
func ZeroGrads(m Module) {
	for _, p := range m.Params() {
		p.Value.ZeroGrad()
	}
}

// NumParams returns the total element count across a module's parameters.
func NumParams(m Module) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Data.Len()
	}
	return n
}

// prefix renames params returned by a submodule.
func prefix(name string, ps []NamedParam) []NamedParam {
	out := make([]NamedParam, len(ps))
	for i, p := range ps {
		out[i] = NamedParam{Name: name + "." + p.Name, Value: p.Value}
	}
	return out
}

// Linear is a bias-free dense layer y = x·W. W is stored (in, out).
type Linear struct {
	W *ag.Value
	// Adapter, when non-nil, post-processes the layer output given the
	// original input — the hook parameter-efficient tuners (LoRA) attach
	// to. Adapter parameters are owned by whoever installed the hook and
	// are not part of Params().
	Adapter func(x, y *ag.Value) *ag.Value
}

// NewLinear returns a Xavier-initialised dense layer.
func NewLinear(g *tensor.RNG, in, out int) *Linear {
	return &Linear{W: ag.Param(g.Xavier(in, out))}
}

// Forward applies the layer to x of shape (rows, in).
func (l *Linear) Forward(x *ag.Value) *ag.Value {
	y := ag.MatMul(x, l.W)
	if l.Adapter != nil {
		y = l.Adapter(x, y)
	}
	return y
}

// Params implements Module.
func (l *Linear) Params() []NamedParam {
	return []NamedParam{{Name: "w", Value: l.W}}
}

// In returns the input width.
func (l *Linear) In() int { return l.W.Data.Rows() }

// Out returns the output width.
func (l *Linear) Out() int { return l.W.Data.Cols() }

// Embedding maps integer ids to learned dim-wide rows.
type Embedding struct {
	W *ag.Value // (vocab, dim)
}

// NewEmbedding returns a normally initialised embedding table.
func NewEmbedding(g *tensor.RNG, vocab, dim int) *Embedding {
	return &Embedding{W: ag.Param(g.Normal(0, 0.02, vocab, dim))}
}

// Forward gathers the rows for ids.
func (e *Embedding) Forward(ids []int) *ag.Value { return ag.Embedding(e.W, ids) }

// Params implements Module.
func (e *Embedding) Params() []NamedParam {
	return []NamedParam{{Name: "w", Value: e.W}}
}

// RMSNorm is a root-mean-square layer norm with learned gain.
type RMSNorm struct {
	Gain *ag.Value
	Eps  float32
}

// NewRMSNorm returns a unit-gain RMSNorm over dim channels.
func NewRMSNorm(dim int) *RMSNorm {
	return &RMSNorm{Gain: ag.Param(tensor.Ones(dim)), Eps: 1e-5}
}

// Forward normalises each row of x.
func (n *RMSNorm) Forward(x *ag.Value) *ag.Value { return ag.RMSNorm(x, n.Gain, n.Eps) }

// Params implements Module.
func (n *RMSNorm) Params() []NamedParam {
	return []NamedParam{{Name: "gain", Value: n.Gain}}
}

// mustDiv panics unless a is divisible by b — used for head-count checks.
func mustDiv(a, b int, what string) {
	if a%b != 0 {
		panic(fmt.Sprintf("nn: %s: %d not divisible by %d", what, a, b))
	}
}
