package adapt

import (
	"testing"

	"edgellm/internal/data"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// BenchmarkWindowStep times one windowed Tuner.Step at the tuning workload's
// shape (bench/workloads.go: d128, 6 layers, 384 hidden, 256 vocab, a batch
// of 4 × 32 tokens, window 2), after one pass over the window cycle has
// allocated every window's optimizer state and warmed the arena. BENCH_baseline.json gates its bytes and allocations: the frozen
// prefix on the autograd forward instead of nn.Forward costs ~2.7 MB a step.
func BenchmarkWindowStep(b *testing.B) {
	cfg := nn.Config{Vocab: 256, Dim: 128, Heads: 4, Layers: 6, Hidden: 384, MaxSeq: 32, ExitHeads: true}
	m := nn.NewModel(cfg, tensor.NewRNG(1))
	m.SetAllTrainable(false)
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategySliding})
	if err != nil {
		b.Fatal(err)
	}
	corpus := data.MarkovCorpus(2, cfg.Vocab, 8000, 4)
	g := tensor.NewRNG(3)
	tr := train.NewTrainer(train.NewAdamW(0.01), 0.01, 1)
	batches := make([][][]int, cfg.Layers)
	targets := make([][]int, cfg.Layers)
	for i := range batches {
		batches[i], targets[i] = corpus.Batch(g, 4, 32)
	}
	for i := 0; i < cfg.Layers; i++ {
		tuner.Step(tr, batches[i], targets[i])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(batches)
		tuner.Step(tr, batches[j], targets[j])
	}
}
