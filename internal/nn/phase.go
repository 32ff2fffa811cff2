package nn

import (
	"runtime"

	"edgellm/internal/tensor"
)

// laneCount is how many lanes a decoder built now runs its steps on: one per
// core the process may use, min(GOMAXPROCS, NumCPU). A lane past the cores
// would only wait for one to come free.
func laneCount() int {
	if forcedLanes > 0 {
		return forcedLanes
	}
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// forcedLanes, when positive, is laneCount's answer. Only tests set it, to
// run the decoder at lane counts this host would not pick.
var forcedLanes int

// projection is one product of a projection phase: out = x·w, through the
// packed kernel when p is non-nil.
type projection struct {
	out, w *tensor.Tensor
	p      tensor.PackedMat
}

// phase is the decoder's tensor.Work for its team, one fan-out of a step at a
// time: with x set, up to three projections of x, cut into units of width
// columns in mats order; with x nil, attention over the step's rows, one row
// a unit. Every unit writes only its own output columns or its own row's
// context and score scratch.
type phase struct {
	d    *Decoder
	x    *tensor.Tensor
	mats [3]projection
	ends [3]int // ends[i]: the units of mats[:i+1]

	// width is a projection unit's columns: tensor.BlockCols, or at one
	// lane the model's widest output, so that each product there is one
	// kernel call. A call per 64-column block cost a one-lane packed step
	// 5–17% (fastest of five interleaved runs each, 2-vCPU Xeon guest).
	width int

	// attention: attendSlot's arguments but the row
	l      int
	slots  []int
	q, ctx []float32
}

func (ph *phase) RunUnit(lane, u int) {
	if ph.x == nil {
		ph.d.attendSlot(ph.l, u, ph.slots[u], ph.q, ph.ctx)
		return
	}
	i := 0
	for u >= ph.ends[i] {
		i++
	}
	if i > 0 {
		u -= ph.ends[i-1]
	}
	pr := &ph.mats[i]
	jLo := u * ph.width
	jHi := min(jLo+ph.width, pr.out.Cols())
	if pr.p != nil {
		tensor.MatMulPackedColsInto(pr.out, ph.x, pr.p, ph.d.pscratch, lane, jLo, jHi)
	} else {
		tensor.MatMulColsInto(pr.out, ph.x, pr.w, jLo, jHi)
	}
}

// project computes layer l's block weights [lo, hi), which all read x, into
// their step buffers (projOut) as one phase of the team, through the packed
// kernel where the weight is packed, then adds each one's adapter side path.
func (d *Decoder) project(l, lo, hi int, x *tensor.Tensor) {
	B := x.Rows()
	ws := d.m.Blocks[l].linears()
	d.ph.x = x
	for wi := lo; wi < hi; wi++ {
		pr := projection{out: d.projOut(wi, B), w: ws[wi].W.Data}
		if d.packed != nil {
			if pr.p = d.packed.mats[l][wi]; pr.p != nil {
				d.pscratch.Reserve(d.team.Lanes(), B, x.Cols(), pr.out.Cols())
			}
		}
		d.ph.mats[wi-lo] = pr
	}
	d.fanOut(hi - lo)
	for wi := lo; wi < hi; wi++ {
		d.addSide(d.ph.mats[wi-lo].out, x, d.rowSides, l, wi)
	}
}

// fanOut runs the projection phase of d.ph.x and d.ph.mats[:n] on the team.
func (d *Decoder) fanOut(n int) {
	units := 0
	for i, pr := range d.ph.mats[:n] {
		units += (pr.out.Cols() + d.ph.width - 1) / d.ph.width
		d.ph.ends[i] = units
	}
	d.team.Run(&d.ph, units)
}

// projOut is the step buffer, viewed down to B rows, that block weight wi
// projects into.
func (d *Decoder) projOut(wi, B int) *tensor.Tensor {
	return [numBlockWeights]*batchBuf{&d.q, &d.k, &d.v, &d.att, &d.gate, &d.up, &d.mlp}[wi].rows(B)
}
