package adapt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"edgellm/internal/data"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// trajectorySHA is the sha256 of a seeded tuning run's per-step loss bits and
// every final parameter's bytes (see tuneTrajectory). It pins the whole
// tuning step — forward, attention, the backward matmuls, clipping and AdamW
// — bit for bit: a kernel rewrite that moves any of them moves this.
const trajectorySHA = "f48a846d398e1e6832d345b8dedf77efc5d306134d68e3a2a101370c6559f5a8"

// tuneTrajectory runs 12 sliding-window-2 steps over a seeded 4-layer
// exit-head model — every window, the top one (where the final norm and LM
// head train) included — with AdamW and weight decay on a pooled tape, and
// hashes the loss bits of every step and then every parameter's name and
// bytes. Head dim 12, 11 positions and a 37-token vocabulary put ragged
// widths under every kernel.
func tuneTrajectory(t *testing.T, segments int) string {
	t.Helper()
	cfg := nn.Config{Vocab: 37, Dim: 24, Heads: 2, Layers: 4, Hidden: 40, MaxSeq: 16, ExitHeads: true}
	m := nn.NewModel(cfg, tensor.NewRNG(31))
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategySliding, Segments: segments})
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.MarkovCorpus(32, cfg.Vocab, 2000, 3)
	g := tensor.NewRNG(33)
	tr := train.NewTrainer(train.NewAdamW(0.05), 0.01, 1)
	h := sha256.New()
	var word [8]byte
	for i := 0; i < 12; i++ {
		inputs, targets := corpus.Batch(g, 3, 11)
		loss, _, _ := tuner.Step(tr, inputs, targets)
		binary.LittleEndian.PutUint64(word[:], math.Float64bits(loss))
		h.Write(word[:])
	}
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Value.Data.Data {
			binary.LittleEndian.PutUint32(word[:4], math.Float32bits(v))
			h.Write(word[:4])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestTuneTrajectoryPinned holds the plain and the two-segment window to one
// pinned trajectory. It runs on amd64 only, as scripts/regen-results.sh
// --check does: elsewhere the Go compiler may fuse a multiply-add and math.Exp
// is a different implementation, so the bits are the platform's own.
func TestTuneTrajectoryPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("trajectory pinned on amd64; this is %s", runtime.GOARCH)
	}
	for _, segments := range []int{1, 2} {
		if got := tuneTrajectory(t, segments); got != trajectorySHA {
			t.Errorf("segments=%d: trajectory sha256 %s, want %s", segments, got, trajectorySHA)
		}
	}
}
