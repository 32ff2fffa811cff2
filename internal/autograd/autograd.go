// Package autograd implements the reverse-mode automatic differentiation
// engine used to train the transformer in this reproduction.
//
// The design is a classic dynamic tape: every differentiable operation
// returns a *Value holding the result tensor, the parent Values it was
// computed from, and a closure that propagates the output gradient to the
// parents. Backward() topologically sorts the reachable graph and runs the
// closures in reverse order.
//
// Values whose inputs all have RequiresGrad == false are constant-folded:
// no parents and no closure are recorded. This is the property the
// adaptive-layer-tuning scheme of Edge-LLM relies on — running the frozen
// lower layers of the model produces no tape, so their activations are
// garbage-collected immediately and backpropagation depth is bounded by the
// tuned layer window.
//
// Every taped buffer — op outputs, gradients, backward scratch — comes from
// one process-wide tensor.Pool arena, installed from the start (SetPool swaps
// it, ActivePool reads it); ReleaseTape and the backward loop hand buffers
// back as the step stops needing them (pool.go).
package autograd

import (
	"fmt"

	"edgellm/internal/tensor"
)

// Value is a node in the autograd graph: a tensor plus the bookkeeping
// needed to differentiate through it.
type Value struct {
	// Data holds the forward result.
	Data *tensor.Tensor
	// Grad accumulates ∂loss/∂Data during Backward. It is nil until the
	// first accumulation (or until InitGrad is called).
	Grad *tensor.Tensor
	// RequiresGrad marks leaves that want gradients (parameters) and
	// interior nodes reachable from such leaves.
	RequiresGrad bool

	parents  []*Value
	backward func()

	// dataOwned / gradOwned mark buffers drawn from the active arena (see
	// pool.go); ReleaseTape and the backward loop return them to the pool
	// once the training step can no longer read them.
	dataOwned bool
	gradOwned bool

	// aux holds arena-owned side buffers the op retains for its backward
	// closure (e.g. attention probabilities) that are not graph nodes of
	// their own. The backward closure releases them as soon as they are
	// dead; ReleaseTape releases them for graphs torn down without a
	// backward pass (checkpointing's tape-free first forward).
	aux []*tensor.Tensor
}

// releaseAux returns the op's retained side buffers to the arena. Safe to
// call more than once; only arena-owned buffers are ever registered.
func (v *Value) releaseAux() {
	if len(v.aux) == 0 {
		return
	}
	p := activePool.Load()
	for _, t := range v.aux {
		p.Put(t)
	}
	v.aux = nil
}

// Param wraps t as a trainable leaf (RequiresGrad = true).
func Param(t *tensor.Tensor) *Value { return &Value{Data: t, RequiresGrad: true} }

// Const wraps t as a constant leaf: no gradient flows into it and any ops
// computed purely from constants record no tape.
func Const(t *tensor.Tensor) *Value { return &Value{Data: t} }

// Detach returns a constant Value sharing v's data, cutting the graph.
func (v *Value) Detach() *Value { return Const(v.Data) }

// Shape returns the shape of the underlying tensor.
func (v *Value) Shape() []int { return v.Data.Shape }

// InitGrad ensures v.Grad is allocated (zero-filled) and returns it. The
// buffer comes from the arena and is returned by ZeroGrad (leaves) or the
// backward loop (interior nodes).
func (v *Value) InitGrad() *tensor.Tensor {
	if v.Grad == nil {
		v.Grad = activePool.Load().Get(v.Data.Shape...)
		v.gradOwned = true
	}
	return v.Grad
}

// ZeroGrad drops the accumulated gradient, returning a pooled buffer to
// the arena. The caller must not retain an alias of v.Grad.
func (v *Value) ZeroGrad() {
	if v.gradOwned {
		activePool.Load().Put(v.Grad)
		v.gradOwned = false
	}
	v.Grad = nil
}

// accumulate adds g into v.Grad (allocating on first use). Constant values
// ignore gradients entirely.
func (v *Value) accumulate(g *tensor.Tensor) {
	if !v.RequiresGrad {
		return
	}
	v.InitGrad().AddInPlace(g)
}

// accumulateScratch accumulates g, a scratch buffer of v's shape holding a
// SumCols result (a matmul or attention gradient: every element a sum from
// +0, never −0), and disposes of it. The first gradient to reach v becomes
// v.Grad outright: 0 + g would be g bit for bit, so the zero-filled buffer
// and the add are skipped.
func (v *Value) accumulateScratch(g *tensor.Tensor) {
	if v.RequiresGrad && v.Grad == nil {
		v.Grad, v.gradOwned = g, true
		return
	}
	v.accumulate(g)
	putScratch(g)
}

// newOp constructs an interior node. If none of the parents require a
// gradient the node is emitted as a constant and back is discarded, which
// prevents any tape (and thus any retained activation) below frozen layers.
func newOp(data *tensor.Tensor, back func(out *Value), parents ...*Value) *Value {
	need := false
	for _, p := range parents {
		if p != nil && p.RequiresGrad {
			need = true
			break
		}
	}
	if !need {
		return &Value{Data: data}
	}
	out := &Value{Data: data, RequiresGrad: true, parents: parents}
	out.backward = func() { back(out) }
	return out
}

// Backward runs reverse-mode differentiation from v, which must be a scalar
// (single-element) value, seeding ∂v/∂v = 1.
func (v *Value) Backward() {
	if v.Data.Len() != 1 {
		panic(fmt.Sprintf("autograd: Backward on non-scalar value of shape %v", v.Data.Shape))
	}
	v.BackwardWithGrad(tensor.Ones(v.Data.Shape...))
}

// BackwardWithGrad runs reverse-mode differentiation from v with an
// explicit seed gradient of the same shape as v.
func (v *Value) BackwardWithGrad(seed *tensor.Tensor) {
	if !v.RequiresGrad {
		return // the whole graph is frozen; nothing to do
	}
	order := topoSort(v)
	v.accumulate(seed)
	for i := len(order) - 1; i >= 0; i-- {
		n := order[i]
		if n.backward != nil && n.Grad != nil {
			n.backward()
			// Reverse-topological order means every consumer of n's
			// gradient has already run, so an interior node's grad is dead
			// the moment its own closure finishes — return it to the arena
			// instead of carrying it to the end of the step.
			if n.gradOwned {
				activePool.Load().Put(n.Grad)
				n.gradOwned = false
				n.Grad = nil
			}
		}
	}
}

// topoSort returns the nodes reachable from root in topological order
// (parents before children).
func topoSort(root *Value) []*Value {
	var order []*Value
	visited := map[*Value]bool{}
	// Iterative DFS to avoid stack overflow on deep graphs.
	type frame struct {
		v    *Value
		next int
	}
	stack := []frame{{v: root}}
	visited[root] = true
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		if f.next < len(f.v.parents) {
			p := f.v.parents[f.next]
			f.next++
			if p != nil && p.RequiresGrad && !visited[p] {
				visited[p] = true
				stack = append(stack, frame{v: p})
			}
			continue
		}
		order = append(order, f.v)
		stack = stack[:len(stack)-1]
	}
	return order
}

// TapeBytes returns the bytes of forward activations retained by the tape
// reachable from v (interior nodes only — leaves are parameters, which the
// memory accountant counts separately as weights). It lets tests validate
// the analytic activation-memory model against the real graph.
func TapeBytes(v *Value) int64 {
	if !v.RequiresGrad {
		return 0
	}
	var n int64
	for _, node := range topoSort(v) {
		if node.backward != nil { // interior node: holds an activation
			n += int64(node.Data.Len()) * 4
		}
	}
	return n
}
