package adapt

import (
	"fmt"

	ag "edgellm/internal/autograd"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// LST implements Ladder Side Tuning (Sung et al., 2022), the
// memory-efficient PEFT baseline the Edge-LLM paper compares against: a
// narrow side network runs alongside the frozen backbone, reading each
// block's output through a learned down-projection and producing the final
// prediction from the fused side state. Because the backbone is only ever
// read — never differentiated through — backprop touches the side network
// alone, which is what makes LST memory-cheap (and what Edge-LLM's
// windowed tuning competes with).
type LST struct {
	Backbone *nn.Model
	// Reduction is the width ratio backbone/side (e.g. 4 → side dim d/4).
	Reduction int

	sideDim int
	// downs[i] projects block i's output into the side stream.
	downs []*nn.Linear
	// mixers[i] fuses the projected backbone state into the side state.
	mixers []*nn.Linear
	// gates[i] is a learned scalar gate per ladder rung (stored 1×1).
	gates []*ag.Value
	// head maps the final side state to vocab logits.
	norm *nn.RMSNorm
	head *nn.Linear
	// inProj maps the embedding into the side stream.
	inProj *nn.Linear

	// params caches the Params slice — the parameter set is fixed at
	// construction, and Step asks for it every iteration.
	params []nn.NamedParam
	// ones caches the constant broadcast helpers per row count (the column
	// counts are fixed by the side width). Constants are graph-free and
	// immutable, so reusing them across iterations is safe and saves three
	// tensor allocations per rung per step.
	ones map[int]*onesCache
}

// onesCache holds the all-ones constants used to broadcast a scalar gate
// over a (rows, side) activation.
type onesCache struct {
	full *ag.Value // (rows, side)
	col  *ag.Value // (rows, 1)
	row  *ag.Value // (1, side)
}

// NewLST builds a ladder side network over a frozen backbone. The caller
// is responsible for freezing the backbone (SetAllTrainable(false)); LST
// itself never requires backbone gradients because it detaches every
// backbone activation it reads.
func NewLST(m *nn.Model, g *tensor.RNG, reduction int) *LST {
	if reduction < 1 {
		panic(fmt.Sprintf("adapt: LST reduction %d must be ≥ 1", reduction))
	}
	d := m.Cfg.Dim
	side := LSTSideDim(m.Cfg, reduction)
	l := &LST{Backbone: m, Reduction: reduction, sideDim: side}
	l.inProj = nn.NewLinear(g, d, side, false)
	for range m.Blocks {
		l.downs = append(l.downs, nn.NewLinear(g, d, side, false))
		l.mixers = append(l.mixers, nn.NewLinear(g, side, side, false))
		l.gates = append(l.gates, ag.Param(tensor.Scalar(0.5)))
	}
	l.norm = nn.NewRMSNorm(side)
	l.head = nn.NewLinear(g, side, m.Cfg.Vocab, false)
	return l
}

// LSTSideDim is the side network's width at the given reduction.
func LSTSideDim(cfg nn.Config, reduction int) int {
	if side := cfg.Dim / reduction; side > 1 {
		return side
	}
	return 1
}

// LSTElems counts the parameters NewLST creates without building anything:
// the input projection, a down-projection, mixer and scalar gate per
// ladder rung, and the side norm and head.
func LSTElems(cfg nn.Config, reduction int) int64 {
	d, v, sd := int64(cfg.Dim), int64(cfg.Vocab), int64(LSTSideDim(cfg, reduction))
	return d*sd + int64(cfg.Layers)*(d*sd+sd*sd+1) + sd + sd*v
}

// Params implements nn.Module: only side-network parameters. The slice is
// built once and cached; callers must not append to or reorder it.
func (l *LST) Params() []nn.NamedParam {
	if l.params != nil {
		return l.params
	}
	var ps []nn.NamedParam
	ps = append(ps, nn.NamedParam{Name: "lst.in.w", Value: l.inProj.W})
	for i := range l.downs {
		ps = append(ps, nn.NamedParam{Name: fmt.Sprintf("lst.down%d.w", i), Value: l.downs[i].W})
		ps = append(ps, nn.NamedParam{Name: fmt.Sprintf("lst.mix%d.w", i), Value: l.mixers[i].W})
		ps = append(ps, nn.NamedParam{Name: fmt.Sprintf("lst.gate%d", i), Value: l.gates[i]})
	}
	ps = append(ps, nn.NamedParam{Name: "lst.norm.gain", Value: l.norm.Gain})
	ps = append(ps, nn.NamedParam{Name: "lst.head.w", Value: l.head.W})
	l.params = ps
	return ps
}

// NumParams returns the side-network parameter count.
func (l *LST) NumParams() int {
	n := 0
	for _, p := range l.Params() {
		n += p.Value.Data.Len()
	}
	return n
}

// Logits runs the frozen backbone once, feeds each block output into the
// ladder, and returns the side network's vocab logits. Backbone
// activations are detached, so the recorded tape covers only side ops.
func (l *LST) Logits(batch [][]int) *ag.Value {
	m := l.Backbone
	b := len(batch)
	t := len(batch[0])

	x := m.Embed(batch)
	s := l.inProj.Forward(x.Detach())
	for i, blk := range m.Blocks {
		x = blk.Forward(x, b, t)
		rung := l.downs[i].Forward(x.Detach())
		// gated fusion: s = g·s + (1−g)·rung, then a learned mixer + SiLU.
		g := l.gates[i]
		oc := l.onesFor(s.Shape()[0])
		gb := broadcastScalar(g, oc.col, oc.row)
		s = ag.Add(ag.Mul(gb, s), ag.Mul(ag.Sub(oc.full, gb), rung))
		s = ag.Add(s, ag.SiLU(l.mixers[i].Forward(s)))
	}
	return l.head.Forward(l.norm.Forward(s))
}

// onesFor returns the cached broadcast constants for the given row count.
func (l *LST) onesFor(rows int) *onesCache {
	if oc, ok := l.ones[rows]; ok {
		return oc
	}
	oc := &onesCache{
		full: ag.Const(tensor.Ones(rows, l.sideDim)),
		col:  ag.Const(tensor.Ones(rows, 1)),
		row:  ag.Const(tensor.Ones(1, l.sideDim)),
	}
	if l.ones == nil {
		l.ones = map[int]*onesCache{}
	}
	l.ones[rows] = oc
	return oc
}

// broadcastScalar expands a 1-element parameter to a (rows, cols) value
// using all-ones constants onesCol (rows,1) and onesRow (1,cols); gradients
// sum back into the scalar through the two matmuls.
func broadcastScalar(s *ag.Value, onesCol, onesRow *ag.Value) *ag.Value {
	col := ag.MatMul(onesCol, ag.Reshape(s, 1, 1)) // (rows,1)
	return ag.MatMul(col, onesRow)                 // (rows,cols)
}
