package autograd

import (
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// CausalAttention computes fused multi-head causal self-attention.
//
// q, k, v have shape (B·T, C) with rows grouped batch-major (row b·T+t is
// position t of sequence b). C must be divisible by nHeads. The op keeps the
// per-head softmax probabilities for the backward pass — the dominant
// activation-memory term of attention, which the memory accountant in
// internal/train models explicitly.
//
// The forward is tensor.AttendHead per (batch, head), the arithmetic the
// no-grad forward (nn.Forward) runs too. The backward runs on tensor.SumCols
// the same way: the transposed values are padded to whole groups of 8, so
// every score-gradient row sweeps whole groups on the assembly, and the
// lanes past position t are never read. The softmax-backward dot stays
// scalar.
func CausalAttention(q, k, v *Value, batch, seqLen, nHeads int) *Value {
	rows, c := q.Data.Rows(), q.Data.Cols()
	if rows != batch*seqLen {
		panic(fmt.Sprintf("autograd: CausalAttention rows %d != batch %d × seq %d", rows, batch, seqLen))
	}
	if !q.Data.SameShape(k.Data) || !q.Data.SameShape(v.Data) {
		panic("autograd: CausalAttention q/k/v shape mismatch")
	}
	if c%nHeads != 0 {
		panic(fmt.Sprintf("autograd: channels %d not divisible by %d heads", c, nHeads))
	}
	hd := c / nHeads
	scale := float32(1 / math.Sqrt(float64(hd)))
	T := seqLen

	tape := anyGrad(q, k, v)
	out := outFor(tape, rows, c)
	// probs[b*nHeads+h] is the (T, T) attention matrix for that batch/head,
	// retained for the backward pass. On the tape they are the node's aux
	// buffers, so both the backward closure and ReleaseTape (tape-free
	// teardown) return them to the arena.
	probs := make([]*tensor.Tensor, batch*nHeads)

	Tp := (T + 7) &^ 7
	kT := scratch(hd, Tp)
	sc := scratch(Tp) // one query's scores, as wide as the keys it sweeps
	for b := 0; b < batch; b++ {
		for h := 0; h < nHeads; h++ {
			p := outFor(tape, T, T)
			probs[b*nHeads+h] = p
			base := b*T*c + h*hd // element (b·T, h·hd): the head's first row
			tensor.AttendHead(out.Data[base:], q.Data.Data[base:], k.Data.Data[base:], v.Data.Data[base:],
				c, T, hd, scale, kT.Data, sc.Data, p.Data)
		}
	}
	putScratch(sc)
	putScratch(kT)

	node := newArenaOp(out, func(o *Value) {
		var dQ, dK, dV *tensor.Tensor
		if q.RequiresGrad {
			dQ = scratch(rows, c)
		}
		if k.RequiresGrad {
			dK = scratch(rows, c)
		}
		if v.RequiresGrad {
			dV = scratch(rows, c)
		}
		vT := scratch(hd, Tp)
		// dS holds one head's score gradients, row t over keys 0..t, rows Tp
		// apart; the rows are rewritten for every head and nothing reads
		// above the diagonal.
		dS := scratch(T, Tp)
		g := o.Grad.Data
		for b := 0; b < batch; b++ {
			for h := 0; h < nHeads; h++ {
				p := probs[b*nHeads+h].Data
				base := b*T*c + h*hd
				tensor.TransposeHead(vT.Data, Tp, v.Data.Data[base:], T, hd, c)
				for t := 0; t < T; t++ {
					n := t + 1
					pRow := p[t*T : t*T+n]
					// dP_ts = dO_t · V_s, then in place the softmax
					// backward dS = P ⊙ (dP − Σ P·dP)
					tensor.SumCols(dS.Data[t*Tp:t*Tp+(n+7)&^7], g[base+t*c:], 1, vT.Data, Tp, hd)
					dRow := dS.Data[t*Tp : t*Tp+n]
					var dot float64
					for s, pv := range pRow {
						dot += float64(pv) * float64(dRow[s])
					}
					for s, pv := range pRow {
						dRow[s] = pv * (dRow[s] - float32(dot)) * scale
					}
					if dQ != nil {
						// dQ_t = Σ_{s≤t} dS_ts · K_s
						row := base + t*c
						tensor.SumCols(dQ.Data[row:row+hd], dRow, 1, k.Data.Data[base:], c, n)
					}
				}
				for s := 0; s < T; s++ {
					// dK_s = Σ_{t≥s} dS_ts · Q_t and dV_s = Σ_{t≥s} P_ts · dO_t,
					// down column s of dS and of P.
					row := base + s*c
					if dK != nil {
						tensor.SumCols(dK.Data[row:row+hd], dS.Data[s*Tp+s:], Tp, q.Data.Data[row:], c, T-s)
					}
					if dV != nil {
						tensor.SumCols(dV.Data[row:row+hd], p[s*T+s:], T, g[row:], c, T-s)
					}
				}
			}
		}
		putScratch(dS)
		putScratch(vT)
		if dQ != nil {
			q.accumulateScratch(dQ)
		}
		if dK != nil {
			k.accumulateScratch(dK)
		}
		if dV != nil {
			v.accumulateScratch(dV)
		}
		// The attention matrices are dead once the input gradients exist.
		o.releaseAux()
	}, q, k, v)
	if tape {
		node.aux = probs
	}
	return node
}
