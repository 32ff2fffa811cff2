package autograd

import (
	"testing"

	"edgellm/internal/tensor"
)

func TestConstantFoldingRecordsNoTape(t *testing.T) {
	g := tensor.NewRNG(1)
	a := Const(g.Normal(0, 1, 4, 4))
	b := Const(g.Normal(0, 1, 4, 4))
	out := MatMul(Add(a, b), b)
	if out.RequiresGrad {
		t.Fatal("op over constants must not require grad")
	}
	if graphSize(out) != 0 {
		t.Fatal("op over constants must record no tape")
	}
}

func TestFrozenPrefixBoundsTape(t *testing.T) {
	// Simulates Edge-LLM's adaptive layer window: a deep stack where only
	// the top layers are trainable must record a tape proportional to the
	// trainable suffix, not the whole depth.
	g := tensor.NewRNG(2)
	x := Const(g.Normal(0, 1, 2, 8))
	frozenW := make([]*Value, 6)
	for i := range frozenW {
		frozenW[i] = Const(g.Normal(0, 0.3, 8, 8))
	}
	tunedW := Param(g.Normal(0, 0.3, 8, 8))

	h := x
	for _, w := range frozenW {
		h = SiLU(MatMul(h, w))
	}
	frozenTape := graphSize(h)
	if frozenTape != 0 {
		t.Fatalf("frozen prefix recorded %d tape nodes", frozenTape)
	}
	out := Mean(MatMul(h, tunedW))
	// Tape: tunedW leaf + matmul + mean (+ root). Must be small & constant.
	if n := graphSize(out); n > 4 {
		t.Fatalf("tuned suffix tape %d nodes, want ≤ 4", n)
	}
	out.Backward()
	if tunedW.Grad == nil {
		t.Fatal("tuned weight got no gradient")
	}
}

func TestBackwardAccumulatesAcrossUses(t *testing.T) {
	// y = mean(x + x) → dy/dx = 2/len
	xT := tensor.Ones(2, 2)
	x := Param(xT)
	Mean(Add(x, x)).Backward()
	for _, v := range x.Grad.Data {
		if v != 0.5 {
			t.Fatalf("grad %v, want 0.5 (accumulated twice over 4 elems)", v)
		}
	}
}

func TestBackwardOnNonScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Backward on non-scalar must panic")
		}
	}()
	Param(tensor.Ones(2, 2)).Backward()
}

func TestDetachCutsGradient(t *testing.T) {
	x := Param(tensor.Ones(1, 2))
	y := Scale(x, 3)
	z := Mean(Mul(y.Detach(), y))
	z.Backward()
	// With detach, d z/d x = detached(3x)·3 / len = 9x/len·... verify x got
	// exactly one path of gradient (3·3·1/2 = 4.5), not two.
	for _, v := range x.Grad.Data {
		if v != 4.5 {
			t.Fatalf("grad %v, want 4.5 via single path", v)
		}
	}
}

func TestZeroGradResets(t *testing.T) {
	x := Param(tensor.Ones(1, 1))
	Mean(Mul(x, x)).Backward()
	if x.Grad == nil {
		t.Fatal("expected grad")
	}
	x.ZeroGrad()
	if x.Grad != nil {
		t.Fatal("ZeroGrad must drop the gradient")
	}
}

func TestDeepGraphBackwardNoStackOverflow(t *testing.T) {
	x := Param(tensor.Ones(1, 1))
	h := x
	for i := 0; i < 20000; i++ {
		h = Scale(h, 1.0)
	}
	Mean(h).Backward()
	if x.Grad == nil || x.Grad.Data[0] != 1 {
		t.Fatal("deep chain gradient wrong")
	}
}

func TestCrossEntropyIgnoreAll(t *testing.T) {
	l := Param(tensor.Ones(2, 3))
	loss := CrossEntropy(l, []int{-1, -1}, -1)
	if loss.Data.Data[0] != 0 {
		t.Fatalf("all-ignored CE loss = %v, want 0", loss.Data.Data[0])
	}
	loss.Backward() // must not panic
}

func TestEmbeddingOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Embedding with bad id must panic")
		}
	}()
	Embedding(Param(tensor.Ones(3, 2)), []int{3})
}

func TestCausalAttentionIsCausal(t *testing.T) {
	// Changing a future token's k/v must not change earlier outputs.
	g := tensor.NewRNG(4)
	const batch, seq, heads, c = 1, 4, 2, 6
	q := g.Normal(0, 1, batch*seq, c)
	k := g.Normal(0, 1, batch*seq, c)
	v := g.Normal(0, 1, batch*seq, c)
	out1 := CausalAttention(Const(q), Const(k), Const(v), batch, seq, heads)
	k2, v2 := k.Clone(), v.Clone()
	for j := 0; j < c; j++ { // perturb the last position only
		k2.Set(seq-1, j, k2.At(seq-1, j)+5)
		v2.Set(seq-1, j, v2.At(seq-1, j)-7)
	}
	out2 := CausalAttention(Const(q), Const(k2), Const(v2), batch, seq, heads)
	for t2 := 0; t2 < seq-1; t2++ {
		for j := 0; j < c; j++ {
			if out1.Data.At(t2, j) != out2.Data.At(t2, j) {
				t.Fatalf("future token leaked into position %d", t2)
			}
		}
	}
}

func TestCausalAttentionBatchIndependence(t *testing.T) {
	g := tensor.NewRNG(5)
	const seq, heads, c = 3, 1, 4
	q1 := g.Normal(0, 1, seq, c)
	k1 := g.Normal(0, 1, seq, c)
	v1 := g.Normal(0, 1, seq, c)
	single := CausalAttention(Const(q1), Const(k1), Const(v1), 1, seq, heads)

	// Stack the same sequence twice as a batch; each half must equal the
	// single-sequence result.
	stack := func(t1 *tensor.Tensor) *tensor.Tensor {
		out := tensor.New(2*seq, c)
		copy(out.Data[:seq*c], t1.Data)
		copy(out.Data[seq*c:], t1.Data)
		return out
	}
	double := CausalAttention(Const(stack(q1)), Const(stack(k1)), Const(stack(v1)), 2, seq, heads)
	for i := 0; i < seq; i++ {
		for j := 0; j < c; j++ {
			if double.Data.At(i, j) != single.Data.At(i, j) ||
				double.Data.At(seq+i, j) != single.Data.At(i, j) {
				t.Fatal("batch entries are not independent")
			}
		}
	}
}

// graphSize returns the number of tape nodes reachable from v.
func graphSize(v *Value) int {
	if !v.RequiresGrad {
		return 0
	}
	return len(topoSort(v))
}
