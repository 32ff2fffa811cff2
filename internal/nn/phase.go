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

// epilogue is what a projection unit does with its columns once they hold
// x·W and the adapter terms, so that no stretch of the step runs on the
// leader alone between phases.
type epilogue uint8

const (
	epiNone     epilogue = iota
	epiKey               // write them into the arena's key tiles at each row's position
	epiValue             // write them into the arena's value rows
	epiResidual          // add them into the residual stream
	epiSiLU              // compute the next projection, up, on the same band, then gate ← SiLU(gate)·up there
)

// blockEpilogues is each block weight's epilogue.
var blockEpilogues = [numBlockWeights]epilogue{
	wmWk: epiKey, wmWv: epiValue, wmWo: epiResidual, wmGate: epiSiLU, wmDown: epiResidual,
}

// projection is one product of a projection phase: out = x·w, through the
// packed kernel when p is non-nil, plus the adapter term of each stretch of
// sides, then epi.
type projection struct {
	out, w *tensor.Tensor
	p      tensor.PackedMat
	epi    epilogue
	sides  []sideTerm
}

// phase is the decoder's tensor.Work for its team, one fan-out of a step at a
// time: with x set, up to three projections of x, cut into units of width
// columns in mats order (gate and up share their units: a unit computes the
// same band of both); with x nil, attention over the step's rows, one row a
// unit. Every unit writes only its own output columns, and the same columns
// of the arena or the residual stream, or its own row's context and score
// scratch.
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

	// The step's layer and each row's slot; attention's query and context
	// rows.
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
	jHi := ph.product(lane, pr, jLo)
	if pr.epi == epiNone {
		return
	}
	if pr.epi == epiSiLU {
		ph.product(lane, &ph.mats[i+1], jLo)
	}
	d := ph.d
	n, B := pr.out.Cols(), pr.out.Rows()
	for r := 0; r < B; r++ {
		band := pr.out.Data[r*n+jLo : r*n+jHi]
		switch pr.epi {
		case epiKey:
			d.arena.putKey(ph.l, ph.slots[r], d.pos[r], jLo, band)
		case epiValue:
			p := d.pos[r]
			copy(d.arena.values(ph.l, ph.slots[r])[p*n+jLo:], band)
		case epiResidual:
			x := d.x[r*n+jLo : r*n+jHi]
			for j, v := range band {
				x[j] += v
			}
		case epiSiLU:
			tensor.SiLUMul(band, ph.mats[i+1].out.Data[r*n+jLo:r*n+jHi])
		}
	}
}

// product computes columns [jLo, jLo+width) of pr.out, clipped to its
// width: x·W, then each side term's (alpha/rank)·((x·A)·B) over its rows,
// the B product through MatMulColsInto into the term's delta, so each
// element is the one a whole-matrix MatMulInto gives. It returns the band's
// end.
func (ph *phase) product(lane int, pr *projection, jLo int) int {
	n := pr.out.Cols()
	jHi := min(jLo+ph.width, n)
	if pr.p != nil {
		tensor.MatMulPackedColsInto(pr.out, ph.x, pr.p, ph.d.pscratch, lane, jLo, jHi)
	} else {
		tensor.MatMulColsInto(pr.out, ph.x, pr.w, jLo, jHi)
	}
	for k := range pr.sides {
		s := &pr.sides[k]
		tensor.MatMulColsInto(&s.delta, &s.xa, s.b, jLo, jHi)
		for r := range s.hi - s.lo {
			o := pr.out.Data[(s.lo+r)*n+jLo : (s.lo+r)*n+jHi]
			for j, v := range s.delta.Data[r*n+jLo : r*n+jHi] {
				o[j] += float32(s.scale * v)
			}
		}
	}
	return jHi
}

// project runs layer l's block weights [lo, hi), which all read x, as one
// phase of the team: each into its step buffer (projOut), through the packed
// kernel where the weight is packed, with its adapter terms and its
// epilogue. The side paths' x·A products run first, on the caller.
func (d *Decoder) project(l, lo, hi int, x *tensor.Tensor) {
	B := x.Rows()
	ws := d.m.Blocks[l].linears()
	d.ph.x, d.ph.l = x, l
	for wi := lo; wi < hi; wi++ {
		pr := projection{out: d.projOut(wi, B), w: ws[wi].W.Data, epi: blockEpilogues[wi]}
		if d.packed != nil {
			if pr.p = d.packed.mats[l][wi]; pr.p != nil {
				d.pscratch.Reserve(d.team.Lanes(), B, x.Cols(), pr.out.Cols())
			}
		}
		pr.sides = d.sideTerms(wi-lo, x, d.rowSides, l, wi, pr.out.Cols())
		d.ph.mats[wi-lo] = pr
	}
	d.fanOut(hi - lo)
}

// fanOut runs the projection phase of d.ph.x and d.ph.mats[:n] on the team.
// A projection paired with the next (epiSiLU) adds that one's units to
// nothing: its own units compute both.
func (d *Decoder) fanOut(n int) {
	units := 0
	for i, pr := range d.ph.mats[:n] {
		if i == 0 || d.ph.mats[i-1].epi != epiSiLU {
			units += (pr.out.Cols() + d.ph.width - 1) / d.ph.width
		}
		d.ph.ends[i] = units
	}
	d.team.Run(&d.ph, units)
}

// projOut is the step buffer, viewed down to B rows, that block weight wi
// projects into.
func (d *Decoder) projOut(wi, B int) *tensor.Tensor {
	return [numBlockWeights]*batchBuf{&d.q, &d.k, &d.v, &d.att, &d.gate, &d.up, &d.mlp}[wi].rows(B)
}
