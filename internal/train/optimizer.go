// Package train provides the adaptation substrate: optimizers (SGD with
// momentum, AdamW), learning-rate schedules, a training-step driver with
// gradient clipping, perplexity evaluation, and the analytic memory
// accountant that the Edge-LLM experiments use to report tuning memory.
package train

import (
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// Optimizer updates parameters from accumulated gradients. State is created
// lazily per parameter name, so — exactly as in Edge-LLM's adaptive layer
// tuning — parameters that never receive a gradient never allocate
// optimizer state.
type Optimizer interface {
	// Step applies one update to every parameter carrying a gradient and
	// leaves gradients untouched (the Trainer clears them).
	Step(params []nn.NamedParam, lr float32)
}

// SGD is stochastic gradient descent with classical momentum and decoupled
// weight decay.
type SGD struct {
	Momentum    float32
	WeightDecay float32

	vel map[string]*tensor.Tensor
}

// NewSGD returns an SGD optimizer. momentum 0 disables velocity state.
func NewSGD(momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, vel: map[string]*tensor.Tensor{}}
}

// Step implements Optimizer.
func (s *SGD) Step(params []nn.NamedParam, lr float32) {
	for _, p := range params {
		if p.Value.Grad == nil {
			continue
		}
		if s.WeightDecay != 0 {
			p.Value.Data.ScaleInPlace(1 - lr*s.WeightDecay)
		}
		if s.Momentum == 0 {
			p.Value.Data.AxpyInPlace(-lr, p.Value.Grad)
			continue
		}
		v := s.vel[p.Name]
		if v == nil {
			v = tensor.New(p.Value.Data.Shape...)
			s.vel[p.Name] = v
		}
		v.ScaleInPlace(s.Momentum)
		v.AxpyInPlace(1, p.Value.Grad)
		p.Value.Data.AxpyInPlace(-lr, v)
	}
}

// StateBytes reports the velocity state allocated so far, in bytes.
func (s *SGD) StateBytes() int64 {
	var n int64
	for _, v := range s.vel {
		n += int64(v.Len()) * 4
	}
	return n
}

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter).
type AdamW struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32

	step int
	m, v map[string]*tensor.Tensor
}

// NewAdamW returns an AdamW optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8).
func NewAdamW(weightDecay float32) *AdamW {
	return &AdamW{
		Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: map[string]*tensor.Tensor{}, v: map[string]*tensor.Tensor{},
	}
}

// Step implements Optimizer. The per-element update is tensor.AdamW: weight
// decay first, then the float32 moments, the float64 bias-corrected ratio
// and the float32 step — on amd64 eight elements at a time, with the same
// bits as the scalar loop.
func (a *AdamW) Step(params []nn.NamedParam, lr float32) {
	a.step++
	c := tensor.NewAdamWStep(a.step, a.Beta1, a.Beta2, a.Eps, lr, a.WeightDecay)
	for _, p := range params {
		g := p.Value.Grad
		if g == nil {
			continue
		}
		m := a.m[p.Name]
		v := a.v[p.Name]
		if m == nil {
			m = tensor.New(p.Value.Data.Shape...)
			v = tensor.New(p.Value.Data.Shape...)
			a.m[p.Name] = m
			a.v[p.Name] = v
		}
		tensor.AdamW(p.Value.Data.Data, g.Data, m.Data, v.Data, c)
	}
}

// StateBytes reports the moment state allocated so far, in bytes.
func (a *AdamW) StateBytes() int64 {
	var n int64
	for _, t := range a.m {
		n += int64(t.Len()) * 4
	}
	for _, t := range a.v {
		n += int64(t.Len()) * 4
	}
	return n
}
