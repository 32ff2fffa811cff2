package autograd

import (
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// numericGrad estimates ∂f/∂param[i] by central differences, where f
// rebuilds the graph from scratch each call (params mutated in place).
func numericGrad(t *testing.T, param *tensor.Tensor, f func() float64) *tensor.Tensor {
	t.Helper()
	const h = 1e-3
	g := tensor.New(param.Shape...)
	for i := range param.Data {
		orig := param.Data[i]
		param.Data[i] = orig + h
		up := f()
		param.Data[i] = orig - h
		down := f()
		param.Data[i] = orig
		g.Data[i] = float32((up - down) / (2 * h))
	}
	return g
}

// checkGrad compares analytic and numeric gradients with mixed tolerance.
func checkGrad(t *testing.T, name string, analytic, numeric *tensor.Tensor) {
	t.Helper()
	if !analytic.SameShape(numeric) {
		t.Fatalf("%s: grad shape %v vs numeric %v", name, analytic.Shape, numeric.Shape)
	}
	for i := range analytic.Data {
		a, n := float64(analytic.Data[i]), float64(numeric.Data[i])
		tol := 1e-2*math.Max(math.Abs(a), math.Abs(n)) + 2e-3
		if math.Abs(a-n) > tol {
			t.Fatalf("%s: grad[%d] analytic %.6f vs numeric %.6f", name, i, a, n)
		}
	}
}

// scalarLossOf runs forward+backward once and returns grads of the params.
func lossValue(v *Value) float64 { return float64(v.Data.Data[0]) }

func TestGradMatMulAndAdd(t *testing.T) {
	g := tensor.NewRNG(1)
	aT := g.Normal(0, 1, 3, 4)
	bT := g.Normal(0, 1, 4, 5)
	cT := g.Normal(0, 1, 3, 5)

	build := func() (*Value, *Value, *Value, *Value) {
		a, b, c := Param(aT), Param(bT), Param(cT)
		out := Mean(Mul(Add(MatMul(a, b), c), Add(MatMul(a, b), c)))
		return out, a, b, c
	}
	out, a, b, c := build()
	out.Backward()
	f := func() float64 { v, _, _, _ := build(); return lossValue(v) }
	checkGrad(t, "matmul:a", a.Grad, numericGrad(t, aT, f))
	checkGrad(t, "matmul:b", b.Grad, numericGrad(t, bT, f))
	checkGrad(t, "matmul:c", c.Grad, numericGrad(t, cT, f))
}

func TestGradSubScale(t *testing.T) {
	g := tensor.NewRNG(2)
	aT := g.Normal(0, 1, 2, 3)
	bT := g.Normal(0, 1, 2, 3)
	build := func() (*Value, *Value, *Value) {
		a, b := Param(aT), Param(bT)
		out := Mean(Mul(Sub(a, Scale(b, 2)), Sub(a, Scale(b, 2))))
		return out, a, b
	}
	out, a, b := build()
	out.Backward()
	f := func() float64 { v, _, _ := build(); return lossValue(v) }
	checkGrad(t, "sub:a", a.Grad, numericGrad(t, aT, f))
	checkGrad(t, "sub:b", b.Grad, numericGrad(t, bT, f))
}

func TestGradActivations(t *testing.T) {
	xT := tensor.NewRNG(4).Normal(0, 1, 3, 4)
	build := func() (*Value, *Value) {
		x := Param(xT)
		// a weighted mean, so every element's gradient differs
		w := Const(tensor.FromSlice([]float32{1, -2, 3, -4, 5, -6, 7, -8, 9, -10, 11, -12}, 3, 4))
		return Mean(Mul(SiLU(x), w)), x
	}
	out, x := build()
	out.Backward()
	f := func() float64 { v, _ := build(); return lossValue(v) }
	checkGrad(t, "silu", x.Grad, numericGrad(t, xT, f))
}

func TestGradRMSNorm(t *testing.T) {
	g := tensor.NewRNG(5)
	xT := g.Normal(0, 1, 4, 6)
	gainT := g.Uniform(0.5, 1.5, 6)
	build := func() (*Value, *Value, *Value) {
		x, gain := Param(xT), Param(gainT)
		y := RMSNorm(x, gain, 1e-5)
		w := Const(tensor.NewRNG(6).Normal(0, 1, 4, 6))
		return Mean(Mul(y, w)), x, gain
	}
	out, x, gain := build()
	out.Backward()
	f := func() float64 { v, _, _ := build(); return lossValue(v) }
	checkGrad(t, "rmsnorm:x", x.Grad, numericGrad(t, xT, f))
	checkGrad(t, "rmsnorm:gain", gain.Grad, numericGrad(t, gainT, f))
}

func TestGradEmbedding(t *testing.T) {
	g := tensor.NewRNG(7)
	wT := g.Normal(0, 1, 5, 3)
	ids := []int{0, 2, 2, 4}
	build := func() (*Value, *Value) {
		w := Param(wT)
		y := Embedding(w, ids)
		return Mean(Mul(y, y)), w
	}
	out, w := build()
	out.Backward()
	f := func() float64 { v, _ := build(); return lossValue(v) }
	checkGrad(t, "embedding", w.Grad, numericGrad(t, wT, f))
}

func TestGradCrossEntropy(t *testing.T) {
	g := tensor.NewRNG(8)
	lT := g.Normal(0, 1, 4, 5)
	targets := []int{1, 4, -1, 0} // one ignored
	build := func() (*Value, *Value) {
		l := Param(lT)
		return CrossEntropy(l, targets, -1), l
	}
	out, l := build()
	out.Backward()
	f := func() float64 { v, _ := build(); return lossValue(v) }
	checkGrad(t, "crossentropy", l.Grad, numericGrad(t, lT, f))
}

func TestGradCausalAttention(t *testing.T) {
	g := tensor.NewRNG(9)
	const batch, seq, heads, c = 2, 3, 2, 4
	qT := g.Normal(0, 1, batch*seq, c)
	kT := g.Normal(0, 1, batch*seq, c)
	vT := g.Normal(0, 1, batch*seq, c)
	wT := tensor.NewRNG(10).Normal(0, 1, batch*seq, c)
	build := func() (*Value, *Value, *Value, *Value) {
		q, k, v := Param(qT), Param(kT), Param(vT)
		y := CausalAttention(q, k, v, batch, seq, heads)
		return Mean(Mul(y, Const(wT))), q, k, v
	}
	out, q, k, v := build()
	out.Backward()
	f := func() float64 { o, _, _, _ := build(); return lossValue(o) }
	checkGrad(t, "attn:q", q.Grad, numericGrad(t, qT, f))
	checkGrad(t, "attn:k", k.Grad, numericGrad(t, kT, f))
	checkGrad(t, "attn:v", v.Grad, numericGrad(t, vT, f))
}

func TestGradReshapeSumMean(t *testing.T) {
	g := tensor.NewRNG(11)
	xT := g.Normal(0, 1, 2, 6)
	build := func() (*Value, *Value) {
		x := Param(xT)
		y := Reshape(x, 3, 4)
		return Sum(Mul(y, y)), x
	}
	out, x := build()
	out.Backward()
	f := func() float64 { v, _ := build(); return lossValue(v) }
	checkGrad(t, "reshape", x.Grad, numericGrad(t, xT, f))
}
