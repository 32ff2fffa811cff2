package train

import (
	"testing"

	ag "edgellm/internal/autograd"
)

// BenchmarkStepPoolOn runs b.N full forward+backward+optimizer steps on the
// tiny test model, its tape on the arena. Its matmuls all sit far below the
// tensor package's parallel threshold, so the per-step allocation counts are
// independent of core count — which is what lets benchguard gate allocs/op
// and B/op against a checked-in baseline across machines.
func BenchmarkStepPoolOn(b *testing.B) {
	m := tinyModel(1)
	tr := NewTrainer(NewAdamW(0.01), 0.01, 1.0)
	step := func() {
		loss := ag.CrossEntropy(m.Logits(poolInputs), poolTargets, -1)
		tr.Step(m, loss)
	}
	step() // allocate optimizer state (and warm the arena) outside the timer
	step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}
