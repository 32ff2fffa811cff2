package train

import (
	"math"
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func tinyModel(seed int64) *nn.Model {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 2, Hidden: 32, MaxSeq: 16, ExitHeads: true}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

// quad is a 1-parameter module for optimizer unit tests.
type quad struct{ w *ag.Value }

func (q *quad) Params() []nn.NamedParam {
	return []nn.NamedParam{{Name: "w", Value: q.w}}
}

func (q *quad) loss() *ag.Value { return ag.Mean(ag.Mul(q.w, q.w)) }

func TestSGDConvergesOnQuadratic(t *testing.T) {
	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	opt := NewSGD(0, 0)
	for i := 0; i < 200; i++ {
		nn.ZeroGrads(q)
		q.loss().Backward()
		opt.Step(q.Params(), 0.1)
	}
	if math.Abs(float64(q.w.Data.Data[0])) > 1e-3 {
		t.Fatalf("SGD did not converge: w=%v", q.w.Data.Data[0])
	}
}

func TestSGDMomentumFasterThanPlain(t *testing.T) {
	run := func(momentum float32) float64 {
		q := &quad{w: ag.Param(tensor.Full(3, 4))}
		opt := NewSGD(momentum, 0)
		for i := 0; i < 20; i++ {
			nn.ZeroGrads(q)
			q.loss().Backward()
			opt.Step(q.Params(), 0.02)
		}
		return math.Abs(float64(q.w.Data.Data[0]))
	}
	if run(0.9) >= run(0) {
		t.Fatal("momentum should accelerate convergence on a quadratic")
	}
}

func TestAdamWConverges(t *testing.T) {
	q := &quad{w: ag.Param(tensor.Full(3, 4))}
	opt := NewAdamW(0)
	for i := 0; i < 500; i++ {
		nn.ZeroGrads(q)
		q.loss().Backward()
		opt.Step(q.Params(), 0.05)
	}
	if math.Abs(float64(q.w.Data.Data[0])) > 1e-2 {
		t.Fatalf("AdamW did not converge: w=%v", q.w.Data.Data[0])
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	// With zero gradient, decoupled decay should shrink weights geometrically.
	w := ag.Param(tensor.Full(1, 4))
	w.InitGrad() // zero grad present → step applies decay only
	opt := NewAdamW(0.5)
	opt.Step([]nn.NamedParam{{Name: "w", Value: w}}, 0.1)
	for _, v := range w.Data.Data {
		if v >= 1 {
			t.Fatalf("weight decay did not shrink weight: %v", v)
		}
	}
}

func TestOptimizerStateLazyAllocation(t *testing.T) {
	// Only parameters that receive gradients may allocate state — the
	// property Edge-LLM's memory saving depends on.
	a := ag.Param(tensor.Ones(8, 8))
	b := ag.Param(tensor.Ones(8, 8))
	params := []nn.NamedParam{{Name: "a", Value: a}, {Name: "b", Value: b}}
	a.InitGrad().Fill(0.5)
	opt := NewAdamW(0)
	opt.Step(params, 0.01)
	if got, want := opt.StateBytes(), int64(8*8*4*2); got != want {
		t.Fatalf("AdamW state %d bytes, want %d (only param a)", got, want)
	}
	sgd := NewSGD(0.9, 0)
	sgd.Step(params, 0.01)
	if got, want := sgd.StateBytes(), int64(8*8*4); got != want {
		t.Fatalf("SGD state %d bytes, want %d", got, want)
	}
}

func TestTrainerClipsGradients(t *testing.T) {
	w := ag.Param(tensor.Full(1000, 2))
	q := &quad{w: w}
	tr := NewTrainer(NewSGD(0, 0), 1.0, 1e-6)
	before := w.Data.Data[0]
	tr.Step(q, q.loss())
	// With clip 1e-6 the update must be microscopic even though the raw
	// gradient is 1000.
	if math.Abs(float64(w.Data.Data[0]-before)) > 1e-5 {
		t.Fatal("clipping failed to bound the update")
	}
	if tr.StepCount() != 1 {
		t.Fatal("step count wrong")
	}
}

func TestTrainerReducesModelLoss(t *testing.T) {
	m := tinyModel(1)
	corpus := data.CopyCorpus(2, 16, 200, 4)
	g := tensor.NewRNG(3)
	tr := NewTrainer(NewAdamW(0.01), 0.01, 1.0)

	var first, last float64
	for step := 0; step < 60; step++ {
		inputs, targets := corpus.Batch(g, 4, 9)
		loss := ag.CrossEntropy(m.Logits(inputs), targets, -1)
		v := tr.Step(m, loss)
		if step == 0 {
			first = v
		}
		last = v
	}
	if last >= first {
		t.Fatalf("training did not reduce loss: %.4f → %.4f", first, last)
	}
}

func TestPerplexityConversion(t *testing.T) {
	if Perplexity(0) != 1 {
		t.Fatal("ppl(0) must be 1")
	}
	if math.Abs(Perplexity(math.Log(16))-16) > 1e-9 {
		t.Fatal("ppl(log 16) must be 16")
	}
}

func TestEvalPerplexityUntrainedNearVocab(t *testing.T) {
	m := tinyModel(4)
	c := data.MarkovCorpus(5, 16, 2000, 2)
	ppl := EvalPerplexity(m, c, 2, 12, 8)
	if ppl < 8 || ppl > 40 {
		t.Fatalf("untrained ppl %v implausible for vocab 16", ppl)
	}
}

func TestSequenceLogProb(t *testing.T) {
	// Uniform logits over V=4: each supervised token contributes log(1/4).
	logits := ag.Const(tensor.New(3, 4))
	lp := SequenceLogProb(logits, []int{1, -1, 2}, -1)
	want := 2 * math.Log(0.25)
	if math.Abs(lp-want) > 1e-6 {
		t.Fatalf("logprob %v want %v", lp, want)
	}
}

func TestMCQAccuracyOracleAndAdversary(t *testing.T) {
	d := data.NewMCQDataset(6, 10, 3, 4, 10, 10)
	// Oracle: returns logits that put all mass on the correct next token by
	// echoing a one-hot of the target... we can't see targets from inside
	// forward, so instead test the chance-level property: a uniform model
	// must score ≈ 1/nOptions, and a model that always prefers option-0's
	// entity must score exactly the rate at which option 0 is correct.
	uniform := func(b [][]int) *ag.Value {
		return ag.Const(tensor.New(len(b[0]), 26))
	}
	acc := MCQAccuracy(uniform, d.Test)
	// Uniform logits give identical scores; argmax picks the first option.
	count0 := 0
	for _, e := range d.Test {
		if e.Answer == 0 {
			count0++
		}
	}
	want := float64(count0) / float64(len(d.Test))
	if math.Abs(acc-want) > 1e-9 {
		t.Fatalf("uniform-model accuracy %v, want first-option rate %v", acc, want)
	}
}

func TestEstimateMemoryVanillaVsWindowed(t *testing.T) {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 4, Hidden: 32, MaxSeq: 16, ExitHeads: true}
	vanilla := EstimateMemory(VanillaSpec(cfg, 2, 8, 8))

	windowed := VanillaSpec(cfg, 2, 8, 8)
	windowed.TapeBlocks = 1
	windowed.TrainableElems = BlockElems(cfg)
	win := EstimateMemory(windowed)

	if win.Activations >= vanilla.Activations {
		t.Fatal("windowed tuning must retain fewer activations")
	}
	if win.OptState >= vanilla.OptState || win.Grads >= vanilla.Grads {
		t.Fatal("windowed tuning must hold less optimizer/grad state")
	}
	if win.Total() >= vanilla.Total() {
		t.Fatal("windowed total must be below vanilla")
	}
}

// TestModelParamElemsMatchesBuiltModel pins the analytic parameter count
// every estimator is assembled from against real models, across the exit-
// head variants.
func TestModelParamElemsMatchesBuiltModel(t *testing.T) {
	for _, cfg := range []nn.Config{
		{Vocab: 16, Dim: 16, Heads: 2, Layers: 4, Hidden: 32, MaxSeq: 16},
		{Vocab: 16, Dim: 16, Heads: 2, Layers: 4, Hidden: 32, MaxSeq: 16, ExitHeads: true},
		{Vocab: 24, Dim: 8, Heads: 2, Layers: 3, Hidden: 20, MaxSeq: 12, ExitHeads: true, TieExitHeads: true},
	} {
		m := nn.NewModel(cfg, tensor.NewRNG(7))
		if got, want := ModelParamElems(cfg), int64(nn.NumParams(m)); got != want {
			t.Errorf("%+v: ModelParamElems = %d, built model has %d", cfg, got, want)
		}
	}
}

func TestEstimateMemoryCompressionShrinksWeights(t *testing.T) {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 4, Hidden: 32, MaxSeq: 16}
	spec := VanillaSpec(cfg, 1, 8, 0)
	base := EstimateMemory(spec)
	for i := range spec.BlockWeightBits {
		spec.BlockWeightBits[i] = 4
		spec.BlockWeightSparsity[i] = 0.5
	}
	comp := EstimateMemory(spec)
	if comp.Weights >= base.Weights {
		t.Fatal("compression must shrink weight bytes")
	}
	// 4-bit × 50% sparsity keeps 1/16 of block-weight bytes.
	blockBytes := int64(4) * BlockWeightElems(cfg) * int64(cfg.Layers)
	saved := base.Weights - comp.Weights
	wantSaved := blockBytes * 15 / 16
	if math.Abs(float64(saved-wantSaved)) > float64(blockBytes)/100 {
		t.Fatalf("saved %d bytes, want ≈ %d", saved, wantSaved)
	}
}

// TestBlockWeightBytesMatchesPackedModel ties the analytic weights to the
// executable format: what the estimator charges for the blocks at a width
// is what nn.PackModel holds resident at that width, scales included.
func TestBlockWeightBytesMatchesPackedModel(t *testing.T) {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 3, Hidden: 40, MaxSeq: 16}
	for _, bits := range []int{2, 3, 4, 8} {
		specs := make([]nn.PackSpec, cfg.Layers)
		for i := range specs {
			specs[i].Bits = bits
		}
		pm, err := nn.PackModel(nn.NewModel(cfg, tensor.NewRNG(3)), specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := int64(cfg.Layers) * blockWeightBytes(cfg, float64(bits), 0, true)
		if got := pm.StorageBytes(); got != want {
			t.Errorf("%d-bit: packed model holds %d B, estimator charges %d B", bits, got, want)
		}
	}
}

func TestAnalyticActivationModelMatchesRealTape(t *testing.T) {
	// The analytic block-activation formula must track the real tape within
	// a factor of two (it intentionally ignores a few small tensors).
	cfg := nn.Config{Vocab: 16, Dim: 32, Heads: 4, Layers: 3, Hidden: 64, MaxSeq: 16, ExitHeads: false}
	m := nn.NewModel(cfg, tensor.NewRNG(9))
	m.SetAllTrainable(true)
	batch := [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {8, 7, 6, 5, 4, 3, 2, 1}}
	logits := m.Logits(batch)
	real := ag.TapeBytes(logits)
	analytic := int64(cfg.Layers)*BlockActivationBytes(cfg, 2, 8) +
		4*2*8*int64(cfg.Dim)* /*embed+norm*/ 2 + 4*2*8*int64(cfg.Vocab)
	ratio := float64(real) / float64(analytic)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("analytic model off by ×%.2f (real %d, analytic %d)", ratio, real, analytic)
	}
}
