package adapt

import (
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

func TestLSTLogitsShape(t *testing.T) {
	m := tinyModel(30, 3)
	m.SetAllTrainable(false)
	l := NewLST(m, tensor.NewRNG(31), 4)
	batch := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	logits := l.Logits(batch)
	if logits.Data.Rows() != 8 || logits.Data.Cols() != 16 {
		t.Fatalf("LST logits shape %v", logits.Data.Shape)
	}
}

func TestLSTSideNetworkIsSmall(t *testing.T) {
	m := tinyModel(32, 3)
	l := NewLST(m, tensor.NewRNG(33), 4)
	if nn.NumParams(l) >= nn.NumParams(m)/2 {
		t.Fatalf("side network %d params vs backbone %d — not parameter-efficient",
			nn.NumParams(l), nn.NumParams(m))
	}
}

func TestLSTTapeExcludesBackbone(t *testing.T) {
	m := tinyModel(34, 4)
	m.SetAllTrainable(false)
	l := NewLST(m, tensor.NewRNG(35), 4)
	batch := [][]int{{1, 2, 3, 4}}

	sideTape := ag.TapeBytes(l.Logits(batch))

	m.SetAllTrainable(true)
	fullTape := ag.TapeBytes(m.Logits(batch))
	m.SetAllTrainable(false)

	if sideTape == 0 {
		t.Fatal("LST must record a tape for the side network")
	}
	if sideTape >= fullTape {
		t.Fatalf("LST tape %d not smaller than full backbone tape %d", sideTape, fullTape)
	}
}

func TestLSTBackboneStaysFrozen(t *testing.T) {
	m := tinyModel(36, 2)
	m.SetAllTrainable(false)
	l := NewLST(m, tensor.NewRNG(37), 4)
	batch := [][]int{{1, 2, 3, 4}}
	loss := ag.CrossEntropy(l.Logits(batch), []int{2, 3, 4, 5}, -1)
	loss.Backward()
	for _, p := range m.Params() {
		if p.Value.Grad != nil {
			t.Fatalf("backbone param %s received a gradient", p.Name)
		}
	}
	// All side params must have gradients.
	for _, p := range l.Params() {
		if p.Value.Grad == nil {
			t.Fatalf("side param %s got no gradient", p.Name)
		}
	}
}

func TestLSTTrainingReducesLoss(t *testing.T) {
	m := tinyModel(38, 2)
	m.SetAllTrainable(false)
	l := NewLST(m, tensor.NewRNG(39), 2)
	corpus := data.CopyCorpus(40, 16, 300, 4)
	g := tensor.NewRNG(41)
	tr := train.NewTrainer(train.NewAdamW(0), 0.02, 1)

	var first, last float64
	for i := 0; i < 60; i++ {
		inputs, targets := corpus.Batch(g, 4, 9)
		loss := ag.CrossEntropy(l.Logits(inputs), targets, -1)
		v := tr.Step(l, loss)
		if i == 0 {
			first = v
		}
		last = v
	}
	if last >= first {
		t.Fatalf("LST tuning did not reduce loss: %.4f → %.4f", first, last)
	}
}

func TestLSTValidation(t *testing.T) {
	m := tinyModel(42, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("reduction < 1 must panic")
		}
	}()
	NewLST(m, tensor.NewRNG(43), 0)
}

func TestBroadcastScalarGradient(t *testing.T) {
	s := ag.Param(tensor.Scalar(0.5))
	b := broadcastScalar(s, ag.Const(tensor.Ones(3, 1)), ag.Const(tensor.Ones(1, 4)))
	if b.Data.Rows() != 3 || b.Data.Cols() != 4 {
		t.Fatalf("broadcast shape %v", b.Data.Shape)
	}
	for _, v := range b.Data.Data {
		if v != 0.5 {
			t.Fatalf("broadcast value %v, want 0.5", v)
		}
	}
	ag.Mean(b).Backward()
	// d mean / d s = 1 (each of 12 cells contributes 1/12).
	if got := s.Grad.Data[0]; got < 0.999 || got > 1.001 {
		t.Fatalf("scalar grad %v, want 1", got)
	}
}
