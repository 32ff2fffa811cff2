// Arena plumbing for the tape. Every tape-recorded op draws its forward
// output from the active arena, gradients are pooled by InitGrad, backward
// closures take their scratch from the arena and return it as soon as
// accumulate has consumed it, and ReleaseTape hands a fully-consumed graph's
// buffers back at the end of a training step. Constant-folded computation —
// an op none of whose inputs is trainable — allocates its output with
// tensor.New, since nothing would ever release it; the passes that take no
// gradient at all (the frozen prefix of a window, the LUC probe, evaluation,
// the vote) run on nn.Forward's caller-owned scratch instead and build no
// Values.
//
// Buffers follow tensor.Pool's contract: an op output, and backward scratch,
// that its kernel overwrites in full comes from GetUncleared; only the
// accumulators — InitGrad's gradient, the Embedding and RMSNorm-gain
// scatters and CrossEntropy's logit gradient, whose ignored rows stay zero —
// come zero-filled from Get. A gradient that is a matmul or attention
// result (a SumCols sum from +0, never −0, so 0 + g == g bit for bit)
// becomes its node's Grad outright when it is the first to arrive. Results
// do not depend on what the arena held before: a step on a fresh arena and
// one on an arena full of other steps' stale buffers are bit-equal.

package autograd

import (
	"sync/atomic"

	"edgellm/internal/tensor"
)

// activePool is the process-wide arena. It is never nil.
var activePool atomic.Pointer[tensor.Pool]

func init() { SetPool(nil) }

// SetPool installs p as the arena behind all tape allocations; nil installs
// a fresh, empty one. A buffer goes back to whichever arena is installed
// when it is released, so swap arenas between steps, not inside one.
func SetPool(p *tensor.Pool) {
	if p == nil {
		p = tensor.NewPool()
	}
	activePool.Store(p)
}

// ActivePool returns the installed arena.
func ActivePool() *tensor.Pool { return activePool.Load() }

// anyGrad reports whether an op over these parents would be tape-recorded.
func anyGrad(vs ...*Value) bool {
	for _, v := range vs {
		if v != nil && v.RequiresGrad {
			return true
		}
	}
	return false
}

// outFor returns an output buffer for an op. Tape-recorded outputs draw
// from the arena uncleared (every op writes its whole output; ReleaseTape
// returns them after the step); constant-folded outputs use the plain
// allocator since nothing would ever release them.
func outFor(tape bool, shape ...int) *tensor.Tensor {
	if tape {
		return activePool.Load().GetUncleared(shape...)
	}
	return tensor.New(shape...)
}

// newArenaOp is newOp for an output from outFor: a tape-recorded node owns
// its arena buffer, which ReleaseTape returns.
func newArenaOp(data *tensor.Tensor, back func(out *Value), parents ...*Value) *Value {
	v := newOp(data, back, parents...)
	v.dataOwned = v.RequiresGrad
	return v
}

// scratch returns a pooled temporary for backward closures (which only
// exist on tape-recorded nodes) that the caller overwrites in full before
// reading. Pair with putScratch once the contents have been consumed.
func scratch(shape ...int) *tensor.Tensor { return activePool.Load().GetUncleared(shape...) }

// zeroScratch is scratch for an accumulator: zero-filled.
func zeroScratch(shape ...int) *tensor.Tensor { return activePool.Load().Get(shape...) }

// putScratch returns a backward temporary to the arena. The caller must
// hold the only reference (accumulate copies, so grad temps qualify).
func putScratch(t *tensor.Tensor) { activePool.Load().Put(t) }

// ReleaseTape dismantles the graph reachable from root after a training
// step has fully consumed it: interior nodes hand their arena-owned
// activation and gradient buffers back to the pool and drop their graph
// links so the structs are collectable. Leaves — parameters — keep Data
// and Grad untouched.
//
// Interior Data pointers are nilled even when not arena-owned, so an
// accidental use-after-release fails fast on a nil dereference instead of
// silently reading a recycled buffer. Only release graphs whose values are
// no longer referenced anywhere — the trainer does this with the loss
// graph at the end of each step.
func ReleaseTape(root *Value) {
	if root == nil || !root.RequiresGrad {
		return
	}
	p := activePool.Load()
	for _, n := range topoSort(root) {
		if n.backward == nil {
			continue // leaf: parameters keep data and gradients
		}
		if n.dataOwned {
			p.Put(n.Data)
			n.dataOwned = false
		}
		if n.gradOwned {
			p.Put(n.Grad)
			n.gradOwned = false
		}
		n.releaseAux()
		n.Data = nil
		n.Grad = nil
		n.parents = nil
		n.backward = nil
	}
}
