package train

import (
	"bytes"
	"errors"
	"io"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"edgellm/internal/artifact"
	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/fault"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// loopCorpus builds a small deterministic corpus over the tiny model's
// vocabulary.
func loopCorpus() *data.Corpus {
	tokens := make([]int, 400)
	for i := range tokens {
		tokens[i] = (i*7 + i/3) % 16
	}
	return &data.Corpus{Tokens: tokens}
}

// loopTrainer builds the trainer configuration shared by both halves of
// the determinism tests.
func loopTrainer() *Trainer {
	return NewTrainer(NewAdamW(0.01), 0.01, 1.0)
}

// loopStep is a full-model language-model step driven entirely by the
// loop's RNG.
func loopStep(m *nn.Model, tr *Trainer, c *data.Corpus) StepFunc {
	return func(step int, rng *tensor.RNG) (float64, error) {
		inputs, targets := c.Batch(rng, 2, 8)
		loss := ag.CrossEntropy(m.Logits(inputs), targets, -1)
		return tr.Step(m, loss), nil
	}
}

func modelBytes(t *testing.T, m *nn.Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKillAndResumeBitIdentical is the resume acceptance criterion: a run
// killed mid-way and resumed from its latest snapshot must produce
// byte-identical weights and loss values to an uninterrupted run of the
// same seed.
func TestKillAndResumeBitIdentical(t *testing.T) {
	const total, every, killAt = 24, 5, 13
	corpus := loopCorpus()
	dir := t.TempDir()

	// Uninterrupted reference run.
	mA := tinyModel(7)
	trA := loopTrainer()
	loopA := NewLoop(mA, trA, LoopConfig{
		SnapshotPath: filepath.Join(dir, "a.snap"), SnapshotEvery: every, Seed: 11,
	})
	lossesA, err := loopA.Run(total, loopStep(mA, trA, corpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(lossesA) != total {
		t.Fatalf("reference run produced %d losses, want %d", len(lossesA), total)
	}

	// Interrupted run: identical seeds, killed at step killAt.
	cfgB := LoopConfig{SnapshotPath: filepath.Join(dir, "b.snap"), SnapshotEvery: every, Seed: 11}
	mB := tinyModel(7)
	trB := loopTrainer()
	loopB := NewLoop(mB, trB, cfgB)
	stepB := loopStep(mB, trB, corpus)
	crash := func(step int, rng *tensor.RNG) (float64, error) {
		if step == killAt {
			return 0, errors.New("simulated crash")
		}
		return stepB(step, rng)
	}
	partial, err := loopB.Run(total, crash)
	if err == nil {
		t.Fatal("interrupted run must return the crash error")
	}
	if len(partial) != killAt {
		t.Fatalf("interrupted run completed %d steps, want %d", len(partial), killAt)
	}

	// "Process restart": everything rebuilt from scratch, state comes only
	// from the snapshot file.
	trB2 := loopTrainer()
	loopB2, found, err := Resume(trB2, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("snapshot not found after interrupted run")
	}
	wantResumeAt := (killAt / every) * every
	if loopB2.Step() != wantResumeAt {
		t.Fatalf("resumed at step %d, want %d", loopB2.Step(), wantResumeAt)
	}
	resumed, err := loopB2.Run(total, loopStep(loopB2.Model, trB2, corpus))
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != total-wantResumeAt {
		t.Fatalf("resumed run produced %d losses, want %d", len(resumed), total-wantResumeAt)
	}
	for i, loss := range resumed {
		if loss != lossesA[wantResumeAt+i] {
			t.Fatalf("resumed loss %d = %v, reference %v: resume is not bit-identical",
				wantResumeAt+i, loss, lossesA[wantResumeAt+i])
		}
	}
	if !bytes.Equal(modelBytes(t, mA), modelBytes(t, loopB2.Model)) {
		t.Fatal("final weights differ between uninterrupted and resumed runs")
	}
	if trB2.StepCount() != trA.StepCount() {
		t.Fatalf("trainer step = %d, reference %d", trB2.StepCount(), trA.StepCount())
	}
}

// TestLoopSnapshotMetrics verifies snapshot latency and count land in obsv
// when a recorder is installed.
func TestLoopSnapshotMetrics(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	corpus := loopCorpus()
	m := tinyModel(8)
	tr := loopTrainer()
	loop := NewLoop(m, tr, LoopConfig{
		SnapshotPath: filepath.Join(t.TempDir(), "s.snap"), SnapshotEvery: 2, Seed: 3,
	})
	if _, err := loop.Run(6, loopStep(m, tr, corpus)); err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	if snap.Counters["train.snapshots"] != 3 {
		t.Fatalf("train.snapshots = %d, want 3", snap.Counters["train.snapshots"])
	}
	d, ok := snap.Dists["train.snapshot_ms"]
	if !ok || d.Count != 3 {
		t.Fatalf("train.snapshot_ms distribution missing or wrong count: %+v", d)
	}
}

func TestResumeWithoutSnapshot(t *testing.T) {
	_, found, err := Resume(loopTrainer(), LoopConfig{
		SnapshotPath: filepath.Join(t.TempDir(), "missing.snap"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if found {
		t.Fatal("Resume reported a snapshot that does not exist")
	}
}

// snapshotBytes renders a loop's snapshot into memory.
func snapshotBytes(t *testing.T, l *Loop) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSnapshotRejectsCorruption flips bits across the snapshot container
// and requires every flip to fail the load.
func TestSnapshotRejectsCorruption(t *testing.T) {
	corpus := loopCorpus()
	m := tinyModel(9)
	tr := loopTrainer()
	loop := NewLoop(m, tr, LoopConfig{Seed: 5})
	if _, err := loop.Run(4, loopStep(m, tr, corpus)); err != nil {
		t.Fatal(err)
	}
	full := snapshotBytes(t, loop)

	var bits []int
	for b := 0; b < 8*64; b++ { // magic + header prefix
		bits = append(bits, b)
	}
	for b := 8 * 64; b < 8*(len(full)-8); b += 509 { // strided body sweep
		bits = append(bits, b)
	}
	for b := 8 * (len(full) - 8); b < 8*len(full); b++ { // footer
		bits = append(bits, b)
	}
	for _, bit := range bits {
		corrupt := append([]byte(nil), full...)
		fault.FlipBit(corrupt, bit)
		if _, err := ReadSnapshot(bytes.NewReader(corrupt), loopTrainer(), LoopConfig{}); err == nil {
			t.Fatalf("bit flip at %d loaded successfully", bit)
		}
	}
	for c := 0; c < len(full); c += 173 {
		if _, err := ReadSnapshot(bytes.NewReader(full[:c]), loopTrainer(), LoopConfig{}); err == nil {
			t.Fatalf("truncation at %d loaded successfully", c)
		}
	}
	// The pristine bytes must still load.
	if _, err := ReadSnapshot(bytes.NewReader(full), loopTrainer(), LoopConfig{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

func TestSnapshotOptimizerMismatch(t *testing.T) {
	corpus := loopCorpus()
	m := tinyModel(10)
	tr := loopTrainer() // AdamW
	loop := NewLoop(m, tr, LoopConfig{Seed: 5})
	if _, err := loop.Run(2, loopStep(m, tr, corpus)); err != nil {
		t.Fatal(err)
	}
	raw := snapshotBytes(t, loop)
	sgdTrainer := NewTrainer(NewSGD(0.9, 0), 0.01, 1.0)
	_, err := ReadSnapshot(bytes.NewReader(raw), sgdTrainer, LoopConfig{})
	if err == nil || !strings.Contains(err.Error(), "optimizer") {
		t.Fatalf("optimizer mismatch not diagnosed: %v", err)
	}
}

// TestSnapshotWriteFailureSurfaces injects a write failure mid-snapshot.
func TestSnapshotWriteFailureSurfaces(t *testing.T) {
	corpus := loopCorpus()
	m := tinyModel(11)
	tr := loopTrainer()
	loop := NewLoop(m, tr, LoopConfig{Seed: 5})
	if _, err := loop.Run(2, loopStep(m, tr, corpus)); err != nil {
		t.Fatal(err)
	}
	err := loop.WriteSnapshot(&fault.FailNthWriter{W: &bytes.Buffer{}, N: 4})
	if err == nil {
		t.Fatal("injected write failure must surface")
	}
}

// TestLoopRecoversDivergencePanic: a divergence abort inside StepFunc must
// come back as an error, not a crash, with completed-step state intact.
func TestLoopRecoversDivergencePanic(t *testing.T) {
	m := tinyModel(12)
	tr := loopTrainer()
	tr.MaxBadSteps = 2
	loop := NewLoop(m, tr, LoopConfig{Seed: 5})
	nan := func(int, *tensor.RNG) (float64, error) {
		return tr.Step(m, ag.Const(tensor.Scalar(float32(math.NaN())))), nil
	}
	losses, err := loop.Run(10, nan)
	var de *DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("err = %v, want DivergenceError", err)
	}
	// Step 0 skipped (streak 1), step 1 aborts (streak 2): one completed loss.
	if len(losses) != 1 || loop.Step() != 1 {
		t.Fatalf("losses=%d step=%d after divergence, want 1/1", len(losses), loop.Step())
	}
}

// TestLoopPropagatesForeignPanics: only divergence panics are converted;
// anything else must keep crashing loudly.
func TestLoopPropagatesForeignPanics(t *testing.T) {
	loop := NewLoop(tinyModel(13), loopTrainer(), LoopConfig{Seed: 5})
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic must propagate")
		}
	}()
	loop.Run(1, func(int, *tensor.RNG) (float64, error) { panic("unrelated bug") })
}

// TestSavableRNGStateRoundtrip pins the tensor-level contract the loop
// relies on: restoring a captured state reproduces the stream exactly.
func TestSavableRNGStateRoundtrip(t *testing.T) {
	g := tensor.NewSavableRNG(99)
	for i := 0; i < 37; i++ {
		g.NormFloat64()
		g.Intn(1000)
	}
	state, ok := g.State()
	if !ok {
		t.Fatal("savable RNG must expose state")
	}
	h := tensor.RestoreRNG(state)
	for i := 0; i < 100; i++ {
		if a, b := g.Float64(), h.Float64(); a != b {
			t.Fatalf("draw %d diverged: %v vs %v", i, a, b)
		}
		if a, b := g.NormFloat64(), h.NormFloat64(); a != b {
			t.Fatalf("normal draw %d diverged: %v vs %v", i, a, b)
		}
		if a, b := g.Intn(1<<20), h.Intn(1<<20); a != b {
			t.Fatalf("intn draw %d diverged: %v vs %v", i, a, b)
		}
	}
	if _, ok := tensor.NewRNG(1).State(); ok {
		t.Fatal("default RNG must not claim to be savable")
	}
}

// TestOptimizerStateRoundtrip pins ExportState/ImportState for both
// optimizers: an imported clone must produce identical updates.
func TestOptimizerStateRoundtrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		make func() Optimizer
	}{
		{"adamw", func() Optimizer { return NewAdamW(0.01) }},
		{"sgd", func() Optimizer { return NewSGD(0.9, 0.01) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			step := func(opt Optimizer, w *ag.Value) {
				w.ZeroGrad()
				ag.Mean(ag.Mul(w, w)).Backward()
				opt.Step([]nn.NamedParam{{Name: "w", Value: w}}, 0.05)
			}
			a := tc.make()
			wa := ag.Param(tensor.Full(3, 4))
			for i := 0; i < 5; i++ {
				step(a, wa)
			}
			b := tc.make()
			wb := ag.Param(wa.Data.Clone())
			b.ImportState(a.ExportState())
			for i := 0; i < 5; i++ {
				step(a, wa)
				step(b, wb)
			}
			for i := range wa.Data.Data {
				if wa.Data.Data[i] != wb.Data.Data[i] {
					t.Fatalf("weights diverged at %d: %v vs %v", i, wa.Data.Data[i], wb.Data.Data[i])
				}
			}
		})
	}
}

// TestSnapshotOverwriteKeepsLatest: each snapshot replaces the previous
// one atomically, and the file always parses.
func TestSnapshotOverwriteKeepsLatest(t *testing.T) {
	corpus := loopCorpus()
	dir := t.TempDir()
	path := filepath.Join(dir, "s.snap")
	m := tinyModel(14)
	tr := loopTrainer()
	loop := NewLoop(m, tr, LoopConfig{SnapshotPath: path, SnapshotEvery: 1, Seed: 6})
	step := loopStep(m, tr, corpus)
	for i := 1; i <= 4; i++ {
		if _, err := loop.Run(i, step); err != nil {
			t.Fatal(err)
		}
		resumed, found, err := Resume(loopTrainer(), LoopConfig{SnapshotPath: path})
		if err != nil || !found {
			t.Fatalf("snapshot unreadable after step %d: %v", i, err)
		}
		if resumed.Step() != i {
			t.Fatalf("snapshot after step %d resumes at %d", i, resumed.Step())
		}
	}
}

// FuzzReadSnapshot feeds the snapshot loader outside bytes, as written and
// resealed under a fresh footer: a load either fails and has installed
// nothing into the trainer it was given, or succeeds and yields a loop that
// writes back. It never panics. The embedded checkpoint's header decides how
// big a model nn.Load builds before it reads a tensor (ROADMAP item 4), so
// inputs declaring one far larger than the seeds' are skipped.
func FuzzReadSnapshot(f *testing.F) {
	cfg := nn.Config{Vocab: 16, Dim: 4, Heads: 2, Layers: 1, Hidden: 4, MaxSeq: 8}
	for _, steps := range []int{0, 2} {
		m, tr := nn.NewModel(cfg, tensor.NewRNG(20)), loopTrainer()
		loop := NewLoop(m, tr, LoopConfig{Seed: 5})
		if _, err := loop.Run(steps, loopStep(m, tr, loopCorpus())); err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if err := loop.WriteSnapshot(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	fits := func(data []byte) bool {
		outer, err := artifact.NewReader(bytes.NewReader(data), snapshotMagic)
		if err != nil || outer.Header(new(snapshotHeader)) != nil {
			return true
		}
		inner, err := artifact.NewReader(outer, artifact.Magic([]byte("ELLMCKP2")), artifact.Magic([]byte("ELLMCKP1")))
		var hdr struct{ Config nn.Config }
		if err != nil || inner.Header(&hdr) != nil {
			return true
		}
		c := hdr.Config
		return max(c.Vocab, c.Dim, c.Hidden, c.MaxSeq, c.Layers) <= 64
	}
	load := func(t *testing.T, data []byte) {
		if !fits(data) {
			return
		}
		tr := loopTrainer()
		loop, err := ReadSnapshot(bytes.NewReader(data), tr, LoopConfig{})
		if err != nil {
			if _, slots := tr.Opt.ExportState(); tr.StepCount() != 0 || len(slots) != 0 {
				t.Fatalf("failed load (%v) left step %d and %d optimizer slots in the trainer", err, tr.StepCount(), len(slots))
			}
			return
		}
		if err := loop.WriteSnapshot(io.Discard); err != nil {
			t.Fatalf("loaded snapshot does not write back: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		load(t, data)
		load(t, fault.Reseal(data))
	})
}
