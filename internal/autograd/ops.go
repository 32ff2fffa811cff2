package autograd

import (
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// Add returns a + b (elementwise, equal shapes).
func Add(a, b *Value) *Value {
	out := outFor(anyGrad(a, b), a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.AddInPlace(b.Data)
	return newArenaOp(out, func(o *Value) {
		a.accumulate(o.Grad)
		b.accumulate(o.Grad)
	}, a, b)
}

// Sub returns a - b (elementwise, equal shapes).
func Sub(a, b *Value) *Value {
	out := outFor(anyGrad(a, b), a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.SubInPlace(b.Data)
	return newArenaOp(out, func(o *Value) {
		a.accumulate(o.Grad)
		if b.RequiresGrad {
			g := scratch(o.Grad.Shape...)
			for i, gv := range o.Grad.Data {
				g.Data[i] = -gv
			}
			b.accumulate(g)
			putScratch(g)
		}
	}, a, b)
}

// Mul returns a ⊙ b (Hadamard product, equal shapes).
func Mul(a, b *Value) *Value {
	out := outFor(anyGrad(a, b), a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.MulInPlace(b.Data)
	return newArenaOp(out, func(o *Value) {
		if a.RequiresGrad {
			g := scratch(o.Grad.Shape...)
			tensor.MulInto(g.Data, o.Grad.Data, b.Data.Data)
			a.accumulate(g)
			putScratch(g)
		}
		if b.RequiresGrad {
			g := scratch(o.Grad.Shape...)
			tensor.MulInto(g.Data, o.Grad.Data, a.Data.Data)
			b.accumulate(g)
			putScratch(g)
		}
	}, a, b)
}

// Scale returns s·a.
func Scale(a *Value, s float32) *Value {
	out := outFor(a.RequiresGrad, a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.ScaleInPlace(s)
	return newArenaOp(out, func(o *Value) {
		g := scratch(o.Grad.Shape...)
		for i, gv := range o.Grad.Data {
			g.Data[i] = gv * s
		}
		a.accumulate(g)
		putScratch(g)
	}, a)
}

// MatMul returns a × b for rank-2 values.
func MatMul(a, b *Value) *Value {
	m, k := a.Data.Rows(), a.Data.Cols()
	k2, n := b.Data.Rows(), b.Data.Cols()
	if k != k2 {
		panic(fmt.Sprintf("autograd: MatMul inner dimension mismatch %v × %v", a.Data.Shape, b.Data.Shape))
	}
	out := outFor(anyGrad(a, b), m, n)
	tensor.MatMulInto(out, a.Data, b.Data)
	return newArenaOp(out, func(o *Value) {
		if a.RequiresGrad {
			// dA = dY × Bᵀ: tensor.MatMulTInto's two calls, on arena
			// scratch for the transposed operand.
			bT := scratch(n, k)
			tensor.TransposeInto(bT, b.Data)
			g := scratch(m, k)
			tensor.MatMulInto(g, o.Grad, bT)
			putScratch(bT)
			a.accumulateScratch(g)
		}
		if b.RequiresGrad {
			// dB = Aᵀ × dY
			g := scratch(k, n)
			tensor.TMatMulInto(g, a.Data, o.Grad)
			b.accumulateScratch(g)
		}
	}, a, b)
}

// Reshape returns a view of x with a new shape; gradients pass through
// unchanged (reshaped back). The output aliases x's storage, so it is
// never arena-owned — the node that allocated the buffer releases it.
func Reshape(x *Value, shape ...int) *Value {
	out := x.Data.Reshape(shape...)
	return newOp(out, func(o *Value) {
		x.accumulate(o.Grad.Reshape(x.Data.Shape...))
	}, x)
}

// SiLU applies x·σ(x) elementwise (the activation used by LLaMA-style MLPs),
// forward and backward on tensor's sigmoid kernel: σ in float64 through
// math.Exp's bits, the products in float32 (tensor.SiLU, tensor.SiLUGrad).
func SiLU(x *Value) *Value {
	out := outFor(x.RequiresGrad, x.Data.Shape...)
	tensor.SiLU(out.Data, x.Data.Data)
	return newArenaOp(out, func(o *Value) {
		g := scratch(x.Data.Shape...)
		tensor.SiLUGrad(g.Data, x.Data.Data, o.Grad.Data)
		x.accumulate(g)
		putScratch(g)
	}, x)
}

// RMSNorm applies row-wise root-mean-square normalisation with a learned
// per-channel gain: y = x / rms(x) ⊙ gain, rms(x) = sqrt(mean(x²) + eps).
func RMSNorm(x, gain *Value, eps float32) *Value {
	r, c := x.Data.Rows(), x.Data.Cols()
	if gain.Data.Rank() != 1 || gain.Data.Shape[0] != c {
		panic(fmt.Sprintf("autograd: RMSNorm gain %v incompatible with x %v", gain.Data.Shape, x.Data.Shape))
	}
	out := outFor(anyGrad(x, gain), r, c)
	invRMS := make([]float32, r)
	tensor.RMSNormRows(out.Data, x.Data.Data, gain.Data.Data, eps, invRMS)
	return newArenaOp(out, func(o *Value) {
		var dGain *tensor.Tensor
		if gain.RequiresGrad {
			dGain = zeroScratch(c)
		}
		var dX *tensor.Tensor
		if x.RequiresGrad {
			dX = scratch(r, c)
		}
		var dots [4]float64 // rows i&^3 … of dX's Σ_k go_k g_k x_k
		for i := 0; i < r; i++ {
			if dX != nil && i%4 == 0 {
				n := min(4, r-i)
				rmsDots(dots[:n], x.Data.Data[i*c:(i+n)*c], o.Grad.Data[i*c:(i+n)*c], gain.Data.Data)
			}
			row := x.Data.Row(i)
			gRow := o.Grad.Row(i)
			inv := invRMS[i]
			if dGain != nil {
				for j, v := range row {
					dGain.Data[j] += gRow[j] * v * inv
				}
			}
			if dX != nil {
				// y_j = x_j * inv * g_j with inv = (mean(x²)+eps)^{-1/2}
				// dx_j = inv*g_j*go_j - x_j * inv³/c * Σ_k go_k g_k x_k
				coef := float32(dots[i%4]) * inv * inv * inv / float32(c)
				dRow := dX.Row(i)
				for j, v := range row {
					dRow[j] = gRow[j]*gain.Data.Data[j]*inv - v*coef
				}
			}
		}
		if dX != nil {
			x.accumulate(dX)
			putScratch(dX)
		}
		if dGain != nil {
			gain.accumulate(dGain)
			putScratch(dGain)
		}
	}, x, gain)
}

// rmsDots sets dots[i] to Σ_k float64(g_ik)·float64(gain_k)·float64(x_ik)
// for every row i of x and g (rows of len(gain)), each sum from 0 in
// ascending k. Four rows' sums run side by side, so their float64 adds
// overlap; each row's sum is the one a loop over that row alone adds.
func rmsDots(dots []float64, x, g, gain []float32) {
	c := len(gain)
	row := func(t []float32, i int) []float32 { return t[i*c : (i+1)*c] }
	i := 0
	for ; i+4 <= len(dots); i += 4 {
		x0, x1, x2, x3 := row(x, i), row(x, i+1), row(x, i+2), row(x, i+3)
		g0, g1, g2, g3 := row(g, i), row(g, i+1), row(g, i+2), row(g, i+3)
		var d0, d1, d2, d3 float64
		for k, w := range gain {
			gw := float64(w)
			d0 += float64(g0[k]) * gw * float64(x0[k])
			d1 += float64(g1[k]) * gw * float64(x1[k])
			d2 += float64(g2[k]) * gw * float64(x2[k])
			d3 += float64(g3[k]) * gw * float64(x3[k])
		}
		dots[i], dots[i+1], dots[i+2], dots[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dots); i++ {
		xi, gi := row(x, i), row(g, i)
		var d float64
		for k, w := range gain {
			d += float64(gi[k]) * float64(w) * float64(xi[k])
		}
		dots[i] = d
	}
}

// Embedding gathers rows of weight (vocab, dim) by ids, producing
// (len(ids), dim). The backward pass scatter-adds into the weight gradient.
func Embedding(weight *Value, ids []int) *Value {
	vocab, dim := weight.Data.Rows(), weight.Data.Cols()
	out := outFor(weight.RequiresGrad, len(ids), dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("autograd: Embedding id %d out of range [0,%d)", id, vocab))
		}
		copy(out.Row(i), weight.Data.Row(id))
	}
	return newArenaOp(out, func(o *Value) {
		dW := zeroScratch(vocab, dim)
		for i, id := range ids {
			row := dW.Row(id)
			g := o.Grad.Row(i)
			for j, v := range g {
				row[j] += v
			}
		}
		weight.accumulate(dW)
		putScratch(dW)
	}, weight)
}

// CrossEntropy computes the mean token-level cross-entropy between logits
// (N, vocab) and integer targets (length N). Targets equal to ignoreIndex
// contribute nothing. It returns a scalar Value; the fused backward is the
// standard (softmax − one-hot)/count.
func CrossEntropy(logits *Value, targets []int, ignoreIndex int) *Value {
	n, vocab := logits.Data.Rows(), logits.Data.Cols()
	if len(targets) != n {
		panic(fmt.Sprintf("autograd: CrossEntropy %d targets for %d rows", len(targets), n))
	}
	// probs is retained for the backward pass; pooled when tape-recorded
	// (the closure releases it after producing the logit gradient).
	probs := outFor(logits.RequiresGrad, n, vocab)
	for i := 0; i < n; i++ {
		tensor.SoftmaxRow(probs.Row(i), logits.Data.Row(i), 1)
	}
	var loss float64
	count := 0
	for i, t := range targets {
		if t == ignoreIndex {
			continue
		}
		if t < 0 || t >= vocab {
			panic(fmt.Sprintf("autograd: CrossEntropy target %d out of range [0,%d)", t, vocab))
		}
		p := float64(probs.At(i, t))
		if p < 1e-12 {
			p = 1e-12
		}
		loss -= math.Log(p)
		count++
	}
	if count == 0 {
		count = 1
	}
	out := tensor.Scalar(float32(loss / float64(count)))
	return newOp(out, func(o *Value) {
		scale := o.Grad.Data[0] / float32(count)
		dL := zeroScratch(n, vocab)
		for i, t := range targets {
			if t == ignoreIndex {
				continue
			}
			src := probs.Row(i)
			dst := dL.Row(i)
			for j, p := range src {
				dst[j] = p * scale
			}
			dst[t] -= scale
		}
		logits.accumulate(dL)
		putScratch(dL)
		putScratch(probs)
	}, logits)
}

// Mean reduces x to a scalar mean of all elements.
func Mean(x *Value) *Value {
	out := tensor.Scalar(float32(x.Data.Mean()))
	return newOp(out, func(o *Value) {
		g := scratch(x.Data.Shape...)
		g.Fill(o.Grad.Data[0] / float32(x.Data.Len()))
		x.accumulate(g)
		putScratch(g)
	}, x)
}

// Sum reduces x to a scalar sum of all elements.
func Sum(x *Value) *Value {
	out := tensor.Scalar(float32(x.Data.Sum()))
	return newOp(out, func(o *Value) {
		g := scratch(x.Data.Shape...)
		g.Fill(o.Grad.Data[0])
		x.accumulate(g)
		putScratch(g)
	}, x)
}
