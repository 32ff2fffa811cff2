package nn

import (
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/tensor"
)

func tinyConfig() Config {
	return Config{Vocab: 17, Dim: 16, Heads: 4, Layers: 3, Hidden: 32, MaxSeq: 8, ExitHeads: true}
}

func tinyModel(seed int64) *Model {
	return NewModel(tinyConfig(), tensor.NewRNG(seed))
}

func batch2x4() [][]int {
	return [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
}

func TestConfigValidate(t *testing.T) {
	good := tinyConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{},
		{Vocab: 10, Dim: 15, Heads: 4, Layers: 1, Hidden: 8, MaxSeq: 8}, // heads don't divide
		{Vocab: 10, Dim: 16, Heads: 4, Layers: 0, Hidden: 8, MaxSeq: 8},
		{Vocab: 10, Dim: 16, Heads: 4, Layers: 1, Hidden: 8, MaxSeq: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should be invalid", i)
		}
	}
}

func TestLinearShapes(t *testing.T) {
	g := tensor.NewRNG(1)
	l := NewLinear(g, 4, 6)
	x := ag.Const(g.Normal(0, 1, 3, 4))
	y := l.Forward(x)
	if y.Data.Rows() != 3 || y.Data.Cols() != 6 {
		t.Fatalf("Linear output shape %v", y.Data.Shape)
	}
	if l.In() != 4 || l.Out() != 6 {
		t.Fatal("In/Out wrong")
	}
	if len(l.Params()) != 1 {
		t.Fatal("Linear must expose 1 param")
	}
}

func TestModelLogitsShape(t *testing.T) {
	m := tinyModel(1)
	logits := m.Logits(batch2x4())
	if logits.Data.Rows() != 8 || logits.Data.Cols() != 17 {
		t.Fatalf("logits shape %v, want (8,17)", logits.Data.Shape)
	}
}

func TestModelDeterminism(t *testing.T) {
	a := tinyModel(7).Logits(batch2x4())
	b := tinyModel(7).Logits(batch2x4())
	if !tensor.AllClose(a.Data, b.Data, 0, 0) {
		t.Fatal("same seed must give identical outputs")
	}
}

// exitLogits runs blocks [0, e] and applies exit head e.
func exitLogits(m *Model, batch [][]int, e int) *ag.Value {
	return m.Exits[e].Forward(m.hiddenAt(batch, e+1))
}

func TestExitLogits(t *testing.T) {
	m := tinyModel(2)
	for layer := 0; layer < 3; layer++ {
		l := exitLogits(m, batch2x4(), layer)
		if l.Data.Rows() != 8 || l.Data.Cols() != 17 {
			t.Fatalf("exit %d logits shape %v", layer, l.Data.Shape)
		}
	}
	all := m.allExitLogits(batch2x4())
	if len(all) != 4 { // 3 exits + final head
		t.Fatalf("allExitLogits returned %d heads, want 4", len(all))
	}
	// The per-exit forward must agree with the full pass at the same depth.
	single := exitLogits(m, batch2x4(), 1)
	if !tensor.AllClose(single.Data, all[1].Data, 1e-5, 1e-6) {
		t.Fatal("exit forward disagrees with allExitLogits at same layer")
	}
}

func TestExitHeadsOptional(t *testing.T) {
	cfg := tinyConfig()
	cfg.ExitHeads = false
	m := NewModel(cfg, tensor.NewRNG(1))
	if len(m.Exits) != 0 {
		t.Fatal("ExitHeads=false must not build exits")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("allExitLogits without exits must panic")
		}
	}()
	m.allExitLogits(batch2x4())
}

func TestParamsNamedAndUnique(t *testing.T) {
	m := tinyModel(3)
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if p.Name == "" || p.Value == nil {
			t.Fatal("empty param")
		}
		if seen[p.Name] {
			t.Fatalf("duplicate param name %q", p.Name)
		}
		seen[p.Name] = true
	}
	// tok + pos + per-block(2 norms + 4 attn + 3 mlp = 9) + per-exit(2) + norm + lmhead
	want := 2 + 3*9 + 3*2 + 1 + 1
	if len(seen) != want {
		t.Fatalf("param count %d, want %d", len(seen), want)
	}
}

func TestSetTrainableBoundsTape(t *testing.T) {
	m := tinyModel(4)
	m.SetAllTrainable(false)

	// Fully frozen: no tape at all.
	logits := m.Logits(batch2x4())
	if ag.TapeBytes(logits) != 0 {
		t.Fatal("frozen model must record no tape")
	}

	// Train only the last block + final head: tape must stay small.
	SetTrainable(m.Blocks[2], true)
	SetTrainable(m.Norm, true)
	SetTrainable(m.LMHead, true)
	small := ag.TapeBytes(m.Logits(batch2x4()))

	m.SetAllTrainable(true)
	full := ag.TapeBytes(m.Logits(batch2x4()))
	if small >= full {
		t.Fatalf("partial tape %d not smaller than full %d", small, full)
	}
}

func TestGradientsFlowOnlyToTrainable(t *testing.T) {
	m := tinyModel(5)
	m.SetAllTrainable(false)
	SetTrainable(m.Blocks[1], true)
	SetTrainable(m.Exits[1], true)

	loss := ag.CrossEntropy(exitLogits(m, batch2x4(), 1), []int{2, 3, 4, 5, 6, 7, 8, 9}, -1)
	loss.Backward()

	for _, p := range m.Blocks[1].Params() {
		if p.Value.Grad == nil {
			t.Fatalf("trainable param %s got no grad", p.Name)
		}
	}
	for _, p := range m.Blocks[0].Params() {
		if p.Value.Grad != nil {
			t.Fatalf("frozen param %s got a grad", p.Name)
		}
	}
	for _, p := range m.Blocks[2].Params() {
		if p.Value.Grad != nil {
			t.Fatalf("layer above the exit (%s) got a grad", p.Name)
		}
	}
}

func TestTinyOverfit(t *testing.T) {
	// A three-layer model must be able to overfit an 8-token pattern: this
	// is the end-to-end smoke test that forward+backward+SGD all line up.
	m := tinyModel(6)
	batch := [][]int{{1, 3, 5, 7, 9, 11, 13, 15}}
	targets := []int{3, 5, 7, 9, 11, 13, 15, 1}

	var first, last float64
	for step := 0; step < 120; step++ {
		ZeroGrads(m)
		loss := ag.CrossEntropy(m.Logits(batch), targets, -1)
		if step == 0 {
			first = float64(loss.Data.Data[0])
		}
		last = float64(loss.Data.Data[0])
		loss.Backward()
		for _, p := range m.Params() {
			if p.Value.Grad != nil {
				p.Value.Data.AxpyInPlace(-0.05, p.Value.Grad)
			}
		}
	}
	if last > first*0.2 {
		t.Fatalf("loss did not drop enough: first %.4f last %.4f", first, last)
	}
}

func TestWeightMatricesPerBlock(t *testing.T) {
	m := tinyModel(8)
	ws := m.Blocks[0].WeightMatrices()
	if len(ws) != 7 {
		t.Fatalf("block exposes %d weight matrices, want 7", len(ws))
	}
	for _, w := range ws {
		if w.Rank() != 2 {
			t.Fatal("weight matrices must be rank-2")
		}
	}
}

func TestTiedExitHeadsShareProjection(t *testing.T) {
	cfg := tinyConfig()
	cfg.TieExitHeads = true
	m := NewModel(cfg, tensor.NewRNG(20))
	for _, e := range m.Exits {
		if e.Proj != m.LMHead {
			t.Fatal("tied exits must share the LM head linear")
		}
	}
	// Param names must still be unique (shared weights reported once).
	seen := map[string]bool{}
	for _, p := range m.Params() {
		if seen[p.Name] {
			t.Fatalf("duplicate param %q with tied exits", p.Name)
		}
		seen[p.Name] = true
	}
	// Tied model has Layers×Dim×Vocab fewer parameters than untied.
	untied := NewModel(tinyConfig(), tensor.NewRNG(20))
	wantDiff := cfg.Layers * cfg.Dim * cfg.Vocab
	if got := NumParams(untied) - NumParams(m); got != wantDiff {
		t.Fatalf("tied saves %d params, want %d", got, wantDiff)
	}
	// Exit forward still works and produces vocab logits.
	l := exitLogits(m, batch2x4(), 1)
	if l.Data.Cols() != cfg.Vocab {
		t.Fatal("tied exit logits wrong shape")
	}
	// Gradient through an exit must reach the shared head.
	m.SetAllTrainable(false)
	SetTrainable(m.Exits[0], true)
	SetTrainable(m.LMHead, true)
	loss := ag.CrossEntropy(exitLogits(m, batch2x4(), 0), []int{1, 2, 3, 4, 5, 6, 7, 8}, -1)
	loss.Backward()
	if m.LMHead.W.Grad == nil {
		t.Fatal("shared head got no gradient from exit loss")
	}
}

func TestRaggedBatchPanics(t *testing.T) {
	m := tinyModel(9)
	defer func() {
		if recover() == nil {
			t.Fatal("ragged batch must panic")
		}
	}()
	m.Logits([][]int{{1, 2}, {3}})
}

func TestTooLongSequencePanics(t *testing.T) {
	m := tinyModel(10)
	long := make([]int, m.Cfg.MaxSeq+1)
	defer func() {
		if recover() == nil {
			t.Fatal("over-length sequence must panic")
		}
	}()
	m.Logits([][]int{long})
}

// TestSetAllTrainableCoversParams: the in-place walk of SetAllTrainable
// reaches exactly the values Params lists, tied exits or not.
func TestSetAllTrainableCoversParams(t *testing.T) {
	for _, tied := range []bool{false, true} {
		cfg := tinyConfig()
		cfg.TieExitHeads = tied
		m := NewModel(cfg, tensor.NewRNG(3))
		for _, on := range []bool{true, false, true} {
			SetTrainable(m, !on)
			m.SetAllTrainable(on)
			for _, p := range m.Params() {
				if p.Value.RequiresGrad != on {
					t.Fatalf("tied=%v: SetAllTrainable(%v) left %s at %v", tied, on, p.Name, p.Value.RequiresGrad)
				}
			}
		}
	}
}
