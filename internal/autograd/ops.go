package autograd

import (
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// Add returns a + b (elementwise, equal shapes).
func Add(a, b *Value) *Value {
	out, owned := outFor(anyGrad(a, b), a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.AddInPlace(b.Data)
	v := newOp(out, func(o *Value) {
		a.accumulate(o.Grad)
		b.accumulate(o.Grad)
	}, a, b)
	v.dataOwned = owned
	return v
}

// Sub returns a - b (elementwise, equal shapes).
func Sub(a, b *Value) *Value {
	out, owned := outFor(anyGrad(a, b), a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.SubInPlace(b.Data)
	v := newOp(out, func(o *Value) {
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
	v.dataOwned = owned
	return v
}

// Mul returns a ⊙ b (Hadamard product, equal shapes).
func Mul(a, b *Value) *Value {
	out, owned := outFor(anyGrad(a, b), a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.MulInPlace(b.Data)
	v := newOp(out, func(o *Value) {
		if a.RequiresGrad {
			g := scratch(o.Grad.Shape...)
			for i, gv := range o.Grad.Data {
				g.Data[i] = gv * b.Data.Data[i]
			}
			a.accumulate(g)
			putScratch(g)
		}
		if b.RequiresGrad {
			g := scratch(o.Grad.Shape...)
			for i, gv := range o.Grad.Data {
				g.Data[i] = gv * a.Data.Data[i]
			}
			b.accumulate(g)
			putScratch(g)
		}
	}, a, b)
	v.dataOwned = owned
	return v
}

// Scale returns s·a.
func Scale(a *Value, s float32) *Value {
	out, owned := outFor(a.RequiresGrad, a.Data.Shape...)
	out.CopyFrom(a.Data)
	out.ScaleInPlace(s)
	v := newOp(out, func(o *Value) {
		g := scratch(o.Grad.Shape...)
		for i, gv := range o.Grad.Data {
			g.Data[i] = gv * s
		}
		a.accumulate(g)
		putScratch(g)
	}, a)
	v.dataOwned = owned
	return v
}

// MatMul returns a × b for rank-2 values.
func MatMul(a, b *Value) *Value {
	m, k := a.Data.Rows(), a.Data.Cols()
	k2, n := b.Data.Rows(), b.Data.Cols()
	if k != k2 {
		panic(fmt.Sprintf("autograd: MatMul inner dimension mismatch %v × %v", a.Data.Shape, b.Data.Shape))
	}
	out, owned := outFor(anyGrad(a, b), m, n)
	tensor.MatMulInto(out, a.Data, b.Data)
	v := newOp(out, func(o *Value) {
		if a.RequiresGrad {
			// dA = dY × Bᵀ (MatMulTInto takes B as stored and transposes it)
			g := scratch(m, k)
			tensor.MatMulTInto(g, o.Grad, b.Data)
			a.accumulate(g)
			putScratch(g)
		}
		if b.RequiresGrad {
			// dB = Aᵀ × dY
			g := scratch(k, n)
			tensor.TMatMulInto(g, a.Data, o.Grad)
			b.accumulate(g)
			putScratch(g)
		}
	}, a, b)
	v.dataOwned = owned
	return v
}

// AddBias adds a rank-1 bias to every row of rank-2 x.
func AddBias(x, bias *Value) *Value {
	out, owned := outFor(anyGrad(x, bias), x.Data.Shape...)
	out.CopyFrom(x.Data)
	out.AddRowBroadcast(bias.Data)
	v := newOp(out, func(o *Value) {
		x.accumulate(o.Grad)
		if bias.RequiresGrad {
			r, c := o.Grad.Rows(), o.Grad.Cols()
			g := scratch(c)
			for i := 0; i < r; i++ {
				row := o.Grad.Row(i)
				for j, gv := range row {
					g.Data[j] += gv
				}
			}
			bias.accumulate(g)
			putScratch(g)
		}
	}, x, bias)
	v.dataOwned = owned
	return v
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

// ReLU applies max(0, x) elementwise.
func ReLU(x *Value) *Value {
	out, owned := outFor(x.RequiresGrad, x.Data.Shape...)
	for i, v := range x.Data.Data {
		if v > 0 {
			out.Data[i] = v
		}
	}
	v := newOp(out, func(o *Value) {
		g := scratch(x.Data.Shape...)
		for i, xv := range x.Data.Data {
			if xv > 0 {
				g.Data[i] = o.Grad.Data[i]
			}
		}
		x.accumulate(g)
		putScratch(g)
	}, x)
	v.dataOwned = owned
	return v
}

// SiLU applies x·σ(x) elementwise (the activation used by LLaMA-style MLPs).
func SiLU(x *Value) *Value {
	out, owned := outFor(x.RequiresGrad, x.Data.Shape...)
	for i, v := range x.Data.Data {
		out.Data[i] = v * sigmoid(v)
	}
	v := newOp(out, func(o *Value) {
		g := scratch(x.Data.Shape...)
		for i, xv := range x.Data.Data {
			s := sigmoid(xv)
			g.Data[i] = o.Grad.Data[i] * (s + xv*s*(1-s))
		}
		x.accumulate(g)
		putScratch(g)
	}, x)
	v.dataOwned = owned
	return v
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}

// RMSNorm applies row-wise root-mean-square normalisation with a learned
// per-channel gain: y = x / rms(x) ⊙ gain, rms(x) = sqrt(mean(x²) + eps).
func RMSNorm(x, gain *Value, eps float32) *Value {
	r, c := x.Data.Rows(), x.Data.Cols()
	if gain.Data.Rank() != 1 || gain.Data.Shape[0] != c {
		panic(fmt.Sprintf("autograd: RMSNorm gain %v incompatible with x %v", gain.Data.Shape, x.Data.Shape))
	}
	out, owned := outFor(anyGrad(x, gain), r, c)
	invRMS := make([]float32, r)
	for i := 0; i < r; i++ {
		row := x.Data.Row(i)
		var ss float64
		for _, v := range row {
			ss += float64(v) * float64(v)
		}
		inv := float32(1 / math.Sqrt(ss/float64(c)+float64(eps)))
		invRMS[i] = inv
		outRow := out.Row(i)
		for j, v := range row {
			outRow[j] = v * inv * gain.Data.Data[j]
		}
	}
	v := newOp(out, func(o *Value) {
		var dGain *tensor.Tensor
		if gain.RequiresGrad {
			dGain = scratch(c)
		}
		var dX *tensor.Tensor
		if x.RequiresGrad {
			dX = scratch(r, c)
		}
		for i := 0; i < r; i++ {
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
				var dot float64
				for k, v := range row {
					dot += float64(gRow[k]) * float64(gain.Data.Data[k]) * float64(v)
				}
				coef := float32(dot) * inv * inv * inv / float32(c)
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
	v.dataOwned = owned
	return v
}

// Softmax applies a numerically stable row-wise softmax to rank-2 x.
func Softmax(x *Value) *Value {
	out, owned := outFor(x.RequiresGrad, x.Data.Rows(), x.Data.Cols())
	softmaxRowsInto(out, x.Data)
	v := newOp(out, func(o *Value) {
		r, c := out.Rows(), out.Cols()
		dX := scratch(r, c)
		for i := 0; i < r; i++ {
			p := out.Row(i)
			g := o.Grad.Row(i)
			var dot float64
			for j := range p {
				dot += float64(p[j]) * float64(g[j])
			}
			dRow := dX.Row(i)
			for j := range p {
				dRow[j] = p[j] * (g[j] - float32(dot))
			}
		}
		x.accumulate(dX)
		putScratch(dX)
	}, x)
	v.dataOwned = owned
	return v
}

// softmaxRowsInto computes a row-wise stable softmax of t into out,
// overwriting every element.
func softmaxRowsInto(out, t *tensor.Tensor) {
	r := t.Rows()
	for i := 0; i < r; i++ {
		row := t.Row(i)
		m := row[0]
		for _, v := range row[1:] {
			if v > m {
				m = v
			}
		}
		var sum float64
		outRow := out.Row(i)
		for j, v := range row {
			e := math.Exp(float64(v - m))
			outRow[j] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for j := range outRow {
			outRow[j] *= inv
		}
	}
}

// Embedding gathers rows of weight (vocab, dim) by ids, producing
// (len(ids), dim). The backward pass scatter-adds into the weight gradient.
func Embedding(weight *Value, ids []int) *Value {
	vocab, dim := weight.Data.Rows(), weight.Data.Cols()
	out, owned := outFor(weight.RequiresGrad, len(ids), dim)
	for i, id := range ids {
		if id < 0 || id >= vocab {
			panic(fmt.Sprintf("autograd: Embedding id %d out of range [0,%d)", id, vocab))
		}
		copy(out.Row(i), weight.Data.Row(id))
	}
	v := newOp(out, func(o *Value) {
		dW := scratch(vocab, dim)
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
	v.dataOwned = owned
	return v
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
	probs, _ := outFor(logits.RequiresGrad, n, vocab)
	softmaxRowsInto(probs, logits.Data)
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
		dL := scratch(n, vocab)
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
