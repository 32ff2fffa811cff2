package autograd

import (
	"fmt"
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// causalAttentionScalarRef is CausalAttention as it was before it moved onto
// tensor.SumCols: every score, context element and gradient a scalar loop
// over d or s. It stays as the differential reference the way nn's legacy
// decoder does; TestCausalAttentionMatchesScalarRef holds the two to the same
// bits.
func causalAttentionScalarRef(q, k, v *Value, batch, seqLen, nHeads int) *Value {
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

	tape := anyGrad(q, k, v)
	out := outFor(tape, rows, c)
	clear(out.Data) // the context rows below accumulate into it
	// probs[b*nHeads+h] is the (T, T) attention matrix for that batch/head,
	// retained for the backward pass. Pooled ones are registered as the
	// node's aux buffers so both the backward closure and ReleaseTape
	// (tape-free teardown) return them to the arena.
	probs := make([]*tensor.Tensor, batch*nHeads)
	var pooledProbs []*tensor.Tensor

	for b := 0; b < batch; b++ {
		for h := 0; h < nHeads; h++ {
			p := outFor(tape, seqLen, seqLen)
			probs[b*nHeads+h] = p
			if tape {
				pooledProbs = append(pooledProbs, p)
			}
			for t := 0; t < seqLen; t++ {
				qRow := q.Data.Row(b*seqLen + t)[h*hd : (h+1)*hd]
				// scores over keys 0..t (causal mask)
				maxS := float32(math.Inf(-1))
				scores := p.Row(t)[:t+1]
				for s := 0; s <= t; s++ {
					kRow := k.Data.Row(b*seqLen + s)[h*hd : (h+1)*hd]
					var dot float32
					for d := 0; d < hd; d++ {
						dot += qRow[d] * kRow[d]
					}
					dot *= scale
					scores[s] = dot
					if dot > maxS {
						maxS = dot
					}
				}
				var sum float64
				for s := 0; s <= t; s++ {
					e := math.Exp(float64(scores[s] - maxS))
					scores[s] = float32(e)
					sum += e
				}
				inv := float32(1 / sum)
				outRow := out.Row(b*seqLen + t)[h*hd : (h+1)*hd]
				for s := 0; s <= t; s++ {
					scores[s] *= inv
					vRow := v.Data.Row(b*seqLen + s)[h*hd : (h+1)*hd]
					w := scores[s]
					for d := 0; d < hd; d++ {
						outRow[d] += w * vRow[d]
					}
				}
			}
		}
	}

	node := newArenaOp(out, func(o *Value) {
		var dQ, dK, dV *tensor.Tensor
		if q.RequiresGrad {
			dQ = zeroScratch(rows, c)
		}
		if k.RequiresGrad {
			dK = zeroScratch(rows, c)
		}
		if v.RequiresGrad {
			dV = zeroScratch(rows, c)
		}
		dP := make([]float32, seqLen)
		for b := 0; b < batch; b++ {
			for h := 0; h < nHeads; h++ {
				p := probs[b*nHeads+h]
				for t := 0; t < seqLen; t++ {
					pRow := p.Row(t)[:t+1]
					gRow := o.Grad.Row(b*seqLen + t)[h*hd : (h+1)*hd]
					// dV_s += P_ts · dO_t ;  dP_ts = dO_t · V_s
					for s := 0; s <= t; s++ {
						vRow := v.Data.Row(b*seqLen + s)[h*hd : (h+1)*hd]
						var dot float32
						for d := 0; d < hd; d++ {
							dot += gRow[d] * vRow[d]
						}
						dP[s] = dot
						if dV != nil {
							dvRow := dV.Row(b*seqLen + s)[h*hd : (h+1)*hd]
							w := pRow[s]
							for d := 0; d < hd; d++ {
								dvRow[d] += w * gRow[d]
							}
						}
					}
					// softmax backward: dS = P ⊙ (dP − Σ P·dP)
					var dot float64
					for s := 0; s <= t; s++ {
						dot += float64(pRow[s]) * float64(dP[s])
					}
					for s := 0; s <= t; s++ {
						dS := pRow[s] * (dP[s] - float32(dot)) * scale
						kRow := k.Data.Row(b*seqLen + s)[h*hd : (h+1)*hd]
						qRow := q.Data.Row(b*seqLen + t)[h*hd : (h+1)*hd]
						if dQ != nil {
							dqRow := dQ.Row(b*seqLen + t)[h*hd : (h+1)*hd]
							for d := 0; d < hd; d++ {
								dqRow[d] += dS * kRow[d]
							}
						}
						if dK != nil {
							dkRow := dK.Row(b*seqLen + s)[h*hd : (h+1)*hd]
							for d := 0; d < hd; d++ {
								dkRow[d] += dS * qRow[d]
							}
						}
					}
				}
			}
		}
		if dQ != nil {
			q.accumulate(dQ)
			putScratch(dQ)
		}
		if dK != nil {
			k.accumulate(dK)
			putScratch(dK)
		}
		if dV != nil {
			v.accumulate(dV)
			putScratch(dV)
		}
		// The attention matrices are dead once the input gradients exist.
		o.releaseAux()
	}, q, k, v)
	node.aux = pooledProbs
	return node
}

// attentionRun is one forward and backward of an attention op over copies of
// the same q, k, v and upstream gradient; grads says which of q, k, v take a
// gradient. It returns copies of the output and the three input gradients
// (nil where none was asked for) and hands every arena buffer back.
func attentionRun(op func(q, k, v *Value, batch, seqLen, nHeads int) *Value, in [4]*tensor.Tensor, grads [3]bool, batch, seq, heads int) [4]*tensor.Tensor {
	var vals [3]*Value
	for i := range vals {
		if grads[i] {
			vals[i] = Param(in[i].Clone())
		} else {
			vals[i] = Const(in[i].Clone())
		}
	}
	out := op(vals[0], vals[1], vals[2], batch, seq, heads)
	res := [4]*tensor.Tensor{out.Data.Clone()}
	out.BackwardWithGrad(in[3])
	for i, v := range vals {
		if v.Grad != nil {
			res[i+1] = v.Grad.Clone()
		}
		v.ZeroGrad()
	}
	ReleaseTape(out)
	return res
}

// TestCausalAttentionMatchesScalarRef holds the SumCols attention to the
// scalar loop it replaced, bit for bit: the output and dQ, dK, dV, at head
// dim 12 (a ragged width under SumCols) and T from one position to past a
// 32-column block, with zeros and denormals among the inputs and the
// upstream gradient, on a fresh arena and on one another run at the same
// shape has left full of stale buffers, and with k frozen.
func TestCausalAttentionMatchesScalarRef(t *testing.T) {
	const batch, heads, hd = 2, 2, 12
	c := heads * hd
	for _, seq := range []int{1, 7, 32, 33} {
		g := tensor.NewRNG(int64(seq))
		var in, other [4]*tensor.Tensor
		for i := range in {
			in[i] = g.Normal(0, 1, batch*seq, c)
			for j := g.Intn(7); j < len(in[i].Data); j += 7 {
				in[i].Data[j] = []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(3), -math.Float32frombits(0x00500000)}[j%4]
			}
			other[i] = g.Normal(0, 3, batch*seq, c)
		}
		for _, stale := range []bool{false, true} {
			SetPool(nil)
			if stale {
				attentionRun(CausalAttention, other, [3]bool{true, true, true}, batch, seq, heads)
			}
			for _, grads := range [][3]bool{{true, true, true}, {true, false, true}} {
				want := attentionRun(causalAttentionScalarRef, in, grads, batch, seq, heads)
				got := attentionRun(CausalAttention, in, grads, batch, seq, heads)
				for i, name := range []string{"out", "dQ", "dK", "dV"} {
					if (got[i] == nil) != (want[i] == nil) {
						t.Fatalf("T=%d %s: gradient presence differs", seq, name)
					}
					if got[i] == nil {
						continue
					}
					for j := range want[i].Data {
						if math.Float32bits(got[i].Data[j]) != math.Float32bits(want[i].Data[j]) {
							t.Fatalf("T=%d stale=%v grads=%v %s[%d]: %v, scalar loop %v",
								seq, stale, grads, name, j, got[i].Data[j], want[i].Data[j])
						}
					}
				}
			}
		}
	}
}
