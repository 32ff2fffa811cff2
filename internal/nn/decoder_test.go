package nn

import (
	"math"
	"strings"
	"testing"

	"edgellm/internal/tensor"
)

// mustStep is the test shorthand for a Step that must succeed.
func mustStep(t *testing.T, d *Decoder, tok int) []float32 {
	t.Helper()
	row, err := d.Step(tok)
	if err != nil {
		t.Fatalf("Step(%d): %v", tok, err)
	}
	return row
}

func TestDecoderMatchesFullForward(t *testing.T) {
	m := tinyModel(70)
	seq := []int{3, 1, 4, 1, 5, 9, 2, 6}
	logitsFull := m.Logits([][]int{seq}).Data

	d := NewDecoder(m)
	for pos, tok := range seq {
		row := mustStep(t, d, tok)
		want := logitsFull.Row(pos)
		for j := range row {
			if math.Abs(float64(row[j]-want[j])) > 1e-4 {
				t.Fatalf("pos %d vocab %d: cached %v vs full %v", pos, j, row[j], want[j])
			}
		}
	}
}

func TestDecoderResetIndependence(t *testing.T) {
	m := tinyModel(71)
	d := NewDecoder(m)
	// Returned rows alias scratch, so retain a copy across steps.
	first := append([]float32(nil), mustStep(t, d, 5)...)
	mustStep(t, d, 6)
	d.Reset()
	again := mustStep(t, d, 5)
	for j := range first {
		if first[j] != again[j] {
			t.Fatal("Reset must clear all cached state")
		}
	}
	if d.Pos() != 1 {
		t.Fatal("Pos must track steps since Reset")
	}
}

func TestDecoderGenerateMatchesGenerate(t *testing.T) {
	// Greedy decoding through the KV cache must agree exactly with greedy
	// decoding that re-runs the autograd forward on the growing sequence.
	m := tinyModel(72)
	prompt := []int{1, 2, 3}
	cfg := SampleConfig{Temperature: 0, MaxTokens: 4, Seed: 1}
	slow := append([]int(nil), prompt...)
	for i := 0; i < cfg.MaxTokens; i++ {
		scores := m.Logits([][]int{slow}).Data
		slow = append(slow, SampleLogits(scores.Row(scores.Rows()-1), cfg, nil))
	}
	fast, err := NewDecoder(m).Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(slow) != len(fast) {
		t.Fatal("length mismatch")
	}
	for i := range slow {
		if slow[i] != fast[i] {
			t.Fatalf("token %d: cached %d vs full %d", i, fast[i], slow[i])
		}
	}
}

func TestDecoderOverflowErrors(t *testing.T) {
	m := tinyModel(73)
	d := NewDecoder(m)
	for i := 0; i < m.Cfg.MaxSeq; i++ {
		mustStep(t, d, 1)
	}
	if _, err := d.Step(1); err == nil || !strings.Contains(err.Error(), "MaxSeq") {
		t.Fatalf("stepping past MaxSeq must error, got %v", err)
	}
	// The rejected step must not have advanced the position.
	if d.Pos() != m.Cfg.MaxSeq {
		t.Fatalf("rejected step moved Pos to %d", d.Pos())
	}
}

func TestDecoderGenerateOverflowErrors(t *testing.T) {
	m := tinyModel(74)
	prompt := make([]int, m.Cfg.MaxSeq-1)
	if _, err := NewDecoder(m).Generate(prompt[:1], SampleConfig{Temperature: 0, MaxTokens: m.Cfg.MaxSeq}); err == nil {
		t.Fatal("overflowing generation must error")
	}
}

func TestDecoderBadTokenErrors(t *testing.T) {
	m := tinyModel(75)
	d := NewDecoder(m)
	if _, err := d.Step(m.Cfg.Vocab); err == nil {
		t.Fatal("out-of-range token must error")
	}
	if _, err := d.Step(-1); err == nil {
		t.Fatal("negative token must error")
	}
	// Rejection must leave the cache untouched: the next valid step is
	// position 0.
	mustStep(t, d, 1)
	if d.Pos() != 1 {
		t.Fatalf("Pos after rejected steps = %d, want 1", d.Pos())
	}
}

func TestStepBatchValidation(t *testing.T) {
	m := tinyModel(76)
	pool := tensor.NewPool()
	d := NewBatchDecoder(m, 2, pool)
	defer d.Close()

	if _, err := d.StepBatch(nil, nil); err == nil {
		t.Fatal("empty batch must error")
	}
	if _, err := d.StepBatch([]int{1}, []int{0, 1}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := d.StepBatch([]int{1}, []int{0}); err == nil {
		t.Fatal("unacquired slot must error")
	}
	if _, err := d.StepBatch([]int{1}, []int{5}); err == nil {
		t.Fatal("out-of-range slot must error")
	}

	s0, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	s1, err := d.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if s0 != 0 || s1 != 1 {
		t.Fatalf("Acquire must hand out lowest slots first, got %d,%d", s0, s1)
	}
	if _, err := d.Acquire(); err == nil {
		t.Fatal("acquiring past capacity must error")
	}
	// Adjacent rows on one slot are a run; a slot in two runs is a duplicate.
	if _, err := d.StepBatch([]int{1, 2, 3}, []int{0, 1, 0}); err == nil {
		t.Fatal("duplicate slot must error")
	}
	if _, err := d.StepBatch([]int{1, m.Cfg.Vocab}, []int{0, 1}); err == nil {
		t.Fatal("out-of-range token must error")
	}
	// All rejections above must leave both caches empty and usable.
	rows, err := d.StepBatch([]int{1, 2}, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || d.PosAt(0) != 1 || d.PosAt(1) != 1 {
		t.Fatalf("valid batch after rejections: rows=%d pos=%d,%d", len(rows), d.PosAt(0), d.PosAt(1))
	}
	// A slot at MaxSeq rejects the whole batch without advancing the other.
	for i := 1; i < m.Cfg.MaxSeq; i++ {
		if _, err := d.StepBatch([]int{1}, []int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.StepBatch([]int{1, 2}, []int{0, 1}); err == nil {
		t.Fatal("slot at MaxSeq must reject the batch")
	}
	if d.PosAt(1) != 1 {
		t.Fatalf("rejected batch advanced slot 1 to %d", d.PosAt(1))
	}
}

func BenchmarkDecoderStepVsFullForward(b *testing.B) {
	cfg := Config{Vocab: 64, Dim: 64, Heads: 4, Layers: 4, Hidden: 128, MaxSeq: 128, ExitHeads: false}
	m := NewModel(cfg, tensor.NewRNG(77))
	seq := make([]int, 64)
	for i := range seq {
		i2 := i % cfg.Vocab
		seq[i] = i2
	}
	b.Run("kv-cache", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			d := NewDecoder(m)
			for _, tok := range seq {
				if _, err := d.Step(tok); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("full-reforward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for l := 1; l <= len(seq); l++ {
				m.Logits([][]int{seq[:l]})
			}
		}
	})
}
