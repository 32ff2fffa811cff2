package adapt

import (
	"fmt"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// LoRASet is a collection of low-rank adapters installed on a model's
// block linears — the PEFT baseline of Table T1. It implements nn.Module so
// a train.Trainer can update just the adapter parameters.
type LoRASet struct {
	Rank  int
	Alpha float32

	params []nn.NamedParam
	hosts  []*nn.Linear
}

// InstallLoRA attaches rank-r adapters (B initialised to zero, so tuning
// starts from the base model exactly) to every attention and MLP linear of
// every block. The base model parameters are frozen by the caller; the
// returned set owns the only trainable parameters.
func InstallLoRA(m *nn.Model, g *tensor.RNG, rank int, alpha float32) *LoRASet {
	if rank < 1 {
		panic(fmt.Sprintf("adapt: LoRA rank %d must be ≥ 1", rank))
	}
	set := &LoRASet{Rank: rank, Alpha: alpha}
	for bi, block := range m.Blocks {
		// Attach order is fixed: each adapter consumes RNG draws at init,
		// so iterating a map here would make the whole run seed-unstable.
		linears := []struct {
			name string
			lin  *nn.Linear
		}{
			{"wq", block.Attn.Wq}, {"wk", block.Attn.Wk},
			{"wv", block.Attn.Wv}, {"wo", block.Attn.Wo},
			{"gate", block.MLP.Gate}, {"up", block.MLP.Up}, {"down", block.MLP.Down},
		}
		for _, l := range linears {
			set.attach(fmt.Sprintf("block%d.%s", bi, l.name), l.lin, g)
		}
	}
	return set
}

// LoRAElems counts the parameters InstallLoRA adds at the given rank
// without building anything: an (in×r, r×out) factor pair on each of the
// four dim×dim attention projections and three dim×hidden SwiGLU matrices
// of every block.
func LoRAElems(cfg nn.Config, rank int) int64 {
	d, h := int64(cfg.Dim), int64(cfg.Hidden)
	return int64(cfg.Layers) * int64(rank) * (4*(d+d) + 3*(d+h))
}

// attach installs one adapter on a linear layer.
func (s *LoRASet) attach(name string, lin *nn.Linear, g *tensor.RNG) {
	in, out := lin.In(), lin.Out()
	a := ag.Param(g.Normal(0, 0.02, in, s.Rank))
	b := ag.Param(tensor.New(s.Rank, out)) // zero init: identity at start
	scale := s.Alpha / float32(s.Rank)
	lin.Adapter = func(x, y *ag.Value) *ag.Value {
		return ag.Add(y, ag.Scale(ag.MatMul(ag.MatMul(x, a), b), scale))
	}
	s.params = append(s.params,
		nn.NamedParam{Name: name + ".lora_a", Value: a},
		nn.NamedParam{Name: name + ".lora_b", Value: b},
	)
	s.hosts = append(s.hosts, lin)
}

// Params implements nn.Module.
func (s *LoRASet) Params() []nn.NamedParam { return s.params }

// Remove detaches all adapters, restoring the base model's forward pass.
func (s *LoRASet) Remove() {
	for _, lin := range s.hosts {
		lin.Adapter = nil
	}
	s.hosts = nil
	s.params = nil
}
