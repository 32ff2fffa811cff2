package adapt

import (
	"math"
	"slices"
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/data"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

func tinyModel(seed int64, layers int) *nn.Model {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: layers, Hidden: 32, MaxSeq: 16, ExitHeads: true}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

// exitForward is exit e's logits on the autograd forward: the embedding,
// blocks 0..e, then exit e's head, taped over whatever is trainable.
func exitForward(m *nn.Model, batch [][]int, e int) *ag.Value {
	x := m.Embed(batch)
	for _, blk := range m.Blocks[:e+1] {
		x = blk.Forward(x, len(batch), len(batch[0]))
	}
	return m.Exits[e].Forward(x)
}

func TestTunerConfigValidate(t *testing.T) {
	m := tinyModel(1, 4)
	if _, err := NewTuner(m, TunerConfig{WindowSize: 0}); err == nil {
		t.Fatal("window 0 must be rejected")
	}
	if _, err := NewTuner(m, TunerConfig{WindowSize: 5}); err == nil {
		t.Fatal("window > layers must be rejected")
	}
	if _, err := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategySensitivity}); err == nil {
		t.Fatal("sensitivity strategy without importance must be rejected")
	}
	cfgNoExits := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 2, Hidden: 32, MaxSeq: 16}
	plain := nn.NewModel(cfgNoExits, tensor.NewRNG(2))
	if _, err := NewTuner(plain, TunerConfig{WindowSize: 1}); err == nil {
		t.Fatal("model without exits must be rejected")
	}
}

func TestSlidingWindowCoversAllLayers(t *testing.T) {
	m := tinyModel(3, 5)
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategySliding})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for i := 0; i < 5; i++ {
		lo, hi := tuner.Window(i)
		if hi-lo+1 > 2 || lo < 0 || hi > 4 {
			t.Fatalf("window [%d,%d] invalid", lo, hi)
		}
		for l := lo; l <= hi; l++ {
			seen[l] = true
		}
	}
	for l := 0; l < 5; l++ {
		if !seen[l] {
			t.Fatalf("layer %d never tuned by sliding strategy", l)
		}
	}
}

func TestRoundRobinWindowsFixed(t *testing.T) {
	m := tinyModel(4, 6)
	tuner, _ := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategyRoundRobin})
	// 3 groups: tops 1, 3, 5 repeating.
	wantTops := []int{1, 3, 5, 1, 3, 5}
	for i, want := range wantTops {
		_, hi := tuner.Window(i)
		if hi != want {
			t.Fatalf("iter %d: window top %d, want %d", i, hi, want)
		}
	}
}

func TestTopOnlyWindow(t *testing.T) {
	m := tinyModel(5, 4)
	tuner, _ := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategyTopOnly})
	for i := 0; i < 5; i++ {
		lo, hi := tuner.Window(i)
		if lo != 2 || hi != 3 {
			t.Fatalf("top-only window [%d,%d], want [2,3]", lo, hi)
		}
	}
	if exits := tuner.TunedExits(); len(exits) != 1 || exits[0] != 3 {
		t.Fatalf("top-only TunedExits %v", exits)
	}
}

func TestSensitivityStrategyVisitsHotLayersMore(t *testing.T) {
	m := tinyModel(6, 4)
	imp := []float64{0.1, 0.1, 0.1, 10} // layer 3 is hot
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 1, Strategy: StrategySensitivity, Importance: imp})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for i := 0; i < 64; i++ {
		_, hi := tuner.Window(i)
		counts[hi]++
	}
	if counts[3] <= counts[0] {
		t.Fatalf("hot layer visited %d times vs cold %d", counts[3], counts[0])
	}
	// every layer must still be visited at least once
	for l := 0; l < 4; l++ {
		if counts[l] == 0 {
			t.Fatalf("layer %d starved", l)
		}
	}
}

func TestStepFreezesOutsideWindowAndBoundsTape(t *testing.T) {
	m := tinyModel(7, 4)
	tuner, _ := NewTuner(m, TunerConfig{WindowSize: 1, Strategy: StrategySliding})
	tr := train.NewTrainer(train.NewAdamW(0), 0.01, 0)
	corpus := data.MarkovCorpus(8, 16, 500, 2)
	g := tensor.NewRNG(9)

	inputs, targets := corpus.Batch(g, 2, 8)
	_, lo, hi := tuner.Step(tr, inputs, targets)
	if lo != 0 || hi != 0 {
		t.Fatalf("first sliding window [%d,%d], want [0,0]", lo, hi)
	}
	// After the step, verify tape size at the next window is bounded:
	// build the loss for window [1,1] manually and compare to full tuning.
	m.SetAllTrainable(false)
	nn.SetTrainable(m.Blocks[1], true)
	nn.SetTrainable(m.Exits[1], true)
	partial := ag.TapeBytes(exitForward(m, inputs, 1))

	m.SetAllTrainable(true)
	full := ag.TapeBytes(m.Logits(inputs))
	if partial >= full/2 {
		t.Fatalf("window tape %d not much smaller than full %d", partial, full)
	}
}

func TestAdaptiveTuningReducesLoss(t *testing.T) {
	m := tinyModel(10, 3)
	tuner, _ := NewTuner(m, TunerConfig{WindowSize: 1, Strategy: StrategySliding})
	tr := train.NewTrainer(train.NewAdamW(0.01), 0.01, 1)
	corpus := data.CopyCorpus(11, 16, 300, 4)
	g := tensor.NewRNG(12)

	// Average the loss at a fixed window depth early vs late for a fair
	// comparison (different exits have different losses).
	var early, late float64
	const iters = 90
	for i := 0; i < iters; i++ {
		inputs, targets := corpus.Batch(g, 4, 9)
		loss, _, _ := tuner.Step(tr, inputs, targets)
		if i < 9 {
			early += loss
		}
		if i >= iters-9 {
			late += loss
		}
	}
	if late >= early {
		t.Fatalf("adaptive tuning did not reduce loss: early %.4f late %.4f", early/9, late/9)
	}
	if tuner.Iterations() != iters {
		t.Fatal("iteration counter wrong")
	}
}

func TestTunedExitsSliding(t *testing.T) {
	m := tinyModel(13, 4)
	tuner, _ := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategySliding})
	exits := tuner.TunedExits()
	if len(exits) != 4 {
		t.Fatalf("sliding strategy must reach every exit, got %v", exits)
	}
}

func TestVoterUniformMatchesSingleHeadWhenAlone(t *testing.T) {
	m := tinyModel(14, 3)
	batch := [][]int{{1, 2, 3, 4}}
	v := NewVoter([]int{FinalHead(m)}, VoteUniform)
	got := v.Logits(m, batch)
	want := logSoftmaxRows(m.Logits(batch).Data)
	if !tensor.AllClose(got.Data, want, 1e-5, 1e-6) {
		t.Fatal("single-head voter must reproduce that head's log-probs")
	}
}

func TestVoterCombinedIsNormalizedDistribution(t *testing.T) {
	m := tinyModel(15, 3)
	batch := [][]int{{1, 2, 3, 4}, {5, 6, 7, 8}}
	for _, mode := range []VotingMode{VoteUniform, VoteConfidence} {
		v := NewVoter([]int{0, 1, 2, FinalHead(m)}, mode)
		got := v.Logits(m, batch)
		// Scores are weighted sums of log-probs: exp need not sum to 1,
		// but each row must be a valid score vector (finite, ≤ 0).
		for _, val := range got.Data.Data {
			if math.IsNaN(float64(val)) || val > 0 {
				t.Fatalf("mode %v: invalid combined score %v", mode, val)
			}
		}
	}
}

func TestVoterCalibrationPrefersBetterHead(t *testing.T) {
	m := tinyModel(16, 3)
	corpus := data.CopyCorpus(17, 16, 200, 4)
	g := tensor.NewRNG(18)

	// Train ONLY exit 2's head (final-stack features) briefly so it is
	// strictly better calibrated than the untouched exit 0.
	tr := train.NewTrainer(train.NewAdamW(0.01), 0.02, 1)
	for i := 0; i < 40; i++ {
		inputs, targets := corpus.Batch(g, 4, 9)
		m.SetAllTrainable(false)
		nn.SetTrainable(m.Exits[2], true)
		loss := ag.CrossEntropy(exitForward(m, inputs, 2), targets, -1)
		tr.Step(m.Exits[2], loss)
	}

	batches, targets := corpus.SequentialBatches(2, 9, 6)
	v := NewVoter([]int{0, 2}, VoteCalibrated)
	v.Calibrate(m, batches, targets, 0.5)
	if v.Weights[1] <= v.Weights[0] {
		t.Fatalf("calibration weights %v: trained head must outweigh untrained", v.Weights)
	}
	var sum float64
	for _, w := range v.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("weights must normalise to 1, got %v", sum)
	}
}

func TestVotingBeatsWorstHead(t *testing.T) {
	m := tinyModel(19, 3)
	corpus := data.MarkovCorpus(20, 16, 3000, 2)
	batches, targets := corpus.SequentialBatches(2, 10, 5)

	v := NewVoter([]int{0, 1, 2, FinalHead(m)}, VoteUniform)
	pplVote := train.EvalPerplexityWith(func(b [][]int) *ag.Value { return v.Logits(m, b) }, batches, targets)

	worst := 0.0
	for _, e := range []int{0, 1, 2} {
		ppl := train.EvalPerplexityWith(func(b [][]int) *ag.Value { return exitForward(m, b, e) }, batches, targets)
		if ppl > worst {
			worst = ppl
		}
	}
	if pplVote >= worst {
		t.Fatalf("voting ppl %.3f not better than worst head %.3f", pplVote, worst)
	}
}

func TestInstallLoRAIdentityAtInit(t *testing.T) {
	m := tinyModel(21, 2)
	batch := [][]int{{1, 2, 3, 4}}
	before := m.Logits(batch).Data.Clone()
	set := InstallLoRA(m, tensor.NewRNG(22), 4, 8)
	after := m.Logits(batch).Data
	if !tensor.AllClose(before, after, 0, 0) {
		t.Fatal("zero-initialised LoRA must not change the forward pass")
	}
	// 7 linears per block × 2 blocks × 2 tensors
	if got := len(set.Params()); got != 28 {
		t.Fatalf("LoRA param tensors %d, want 28", got)
	}
	set.Remove()
	if m.Blocks[0].Attn.Wq.Adapter != nil {
		t.Fatal("Remove must detach adapters")
	}
}

// TestInstallLoRADeterministicInit guards the adapter attach order: each
// adapter consumes RNG draws at init, so two same-seed installs must
// produce identical names in identical order with bitwise-equal tensors.
// (A map-ordered attach loop once made every LoRA run seed-unstable.)
func TestInstallLoRADeterministicInit(t *testing.T) {
	build := func() *LoRASet {
		m := tinyModel(31, 2)
		return InstallLoRA(m, tensor.NewRNG(32), 4, 8)
	}
	a, b := build().Params(), build().Params()
	if len(a) != len(b) {
		t.Fatalf("param counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("param %d name %q vs %q: attach order is not deterministic", i, a[i].Name, b[i].Name)
		}
		av, bv := a[i].Value.Data.Data, b[i].Value.Data.Data
		for j := range av {
			if math.Float32bits(av[j]) != math.Float32bits(bv[j]) {
				t.Fatalf("param %s element %d differs between same-seed installs", a[i].Name, j)
			}
		}
	}
}

func TestLoRATuningReducesLossWithFrozenBase(t *testing.T) {
	m := tinyModel(23, 2)
	m.SetAllTrainable(false)
	set := InstallLoRA(m, tensor.NewRNG(24), 4, 8)
	corpus := data.CopyCorpus(25, 16, 300, 4)
	g := tensor.NewRNG(26)
	tr := train.NewTrainer(train.NewAdamW(0), 0.02, 1)

	baseSnapshot := m.Blocks[0].Attn.Wq.W.Data.Clone()
	var first, last float64
	for i := 0; i < 50; i++ {
		inputs, targets := corpus.Batch(g, 4, 9)
		loss := ag.CrossEntropy(m.Logits(inputs), targets, -1)
		v := tr.Step(set, loss)
		if i == 0 {
			first = v
		}
		last = v
	}
	if last >= first {
		t.Fatalf("LoRA tuning did not reduce loss: %.4f → %.4f", first, last)
	}
	if !tensor.AllClose(baseSnapshot, m.Blocks[0].Attn.Wq.W.Data, 0, 0) {
		t.Fatal("base weights must stay frozen under LoRA")
	}
	// At this toy width (dim 16, rank 4) LoRA is ~rank/dim = 25% of the
	// block weights; assert it is at least smaller than the full model.
	if nn.NumParams(set) >= nn.NumParams(m)/2 {
		t.Fatal("LoRA must be parameter-efficient relative to the base model")
	}
}

// runTunerSteps trains a fresh 4-layer model, its exit heads tied or not,
// for n sliding window-3 iterations with each window split into the given
// number of segments, and returns the model plus the per-step losses. The
// schedule visits windows at lo = 0 ([0,0], [0,1], [0,2]) and at lo > 0
// ([1,3], where the final head trains too). It runs on a fresh arena, or on
// a stale one: stocked first by window-2 steps of another model over batches
// of other shapes, every buffer released with its last contents.
func runTunerSteps(t *testing.T, tied bool, segments int, stale bool, n int) (*nn.Model, []float64) {
	t.Helper()
	ag.SetPool(nil)
	corpus := data.MarkovCorpus(8, 16, 500, 2)
	if stale {
		// Shuffled, a stale arena hands a reader of a buffer it did not
		// write other contents than a fresh one does.
		ag.ActivePool().ShuffleFree(1)
		other, err := NewTuner(tinyModel(5, 3), TunerConfig{WindowSize: 2, Strategy: StrategySliding, Segments: 2})
		if err != nil {
			t.Fatal(err)
		}
		g := tensor.NewRNG(6)
		tr := train.NewTrainer(train.NewAdamW(0.01), 0.05, 1)
		for _, shape := range [][2]int{{1, 5}, {3, 7}, {2, 8}} {
			inputs, targets := corpus.Batch(g, shape[0], shape[1])
			other.Step(tr, inputs, targets)
		}
	}
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: 4, Hidden: 32, MaxSeq: 16, ExitHeads: true, TieExitHeads: tied}
	m := nn.NewModel(cfg, tensor.NewRNG(21))
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 3, Strategy: StrategySliding, Segments: segments})
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.NewRNG(22)
	tr := train.NewTrainer(train.NewAdamW(0.01), 0.01, 1)
	losses := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		inputs, targets := corpus.Batch(g, 2, 8)
		loss, _, _ := tuner.Step(tr, inputs, targets)
		losses = append(losses, loss)
	}
	return m, losses
}

// TestRecomputeStepMatchesPlainBitwise asserts the governor's recompute
// rung is numerically free: a window in any number of segments, 1 to its
// width, produces the exact losses and final weights of the plain window
// step, with tied or untied exit heads, on a fresh arena and a stale one.
func TestRecomputeStepMatchesPlainBitwise(t *testing.T) {
	const steps = 8
	for _, tied := range []bool{false, true} {
		base, baseLosses := runTunerSteps(t, tied, 1, false, steps)
		for segments := 1; segments <= 3; segments++ {
			for _, stale := range []bool{false, true} {
				got, gotLosses := runTunerSteps(t, tied, segments, stale, steps)
				for i := range baseLosses {
					if baseLosses[i] != gotLosses[i] {
						t.Fatalf("tied=%v segments=%d stale=%v step %d: loss %v != plain %v",
							tied, segments, stale, i, gotLosses[i], baseLosses[i])
					}
				}
				bp, gp := base.Params(), got.Params()
				if len(bp) != len(gp) {
					t.Fatalf("param count %d != %d", len(gp), len(bp))
				}
				for i := range bp {
					if !tensor.AllClose(bp[i].Value.Data, gp[i].Value.Data, 0, 0) {
						t.Fatalf("tied=%v segments=%d stale=%v: param %s diverged", tied, segments, stale, bp[i].Name)
					}
				}
			}
		}
	}
}

// TestRecomputeStepSkipsNonFiniteLoss: with clipping off and no recorder
// only the loss value can tell a poisoned batch. On the recompute rung a NaN
// loss must leave every weight and the step counter alone, and the streak
// must count up to the divergence abort.
func TestRecomputeStepSkipsNonFiniteLoss(t *testing.T) {
	m := tinyModel(21, 4)
	const poison = 15 // a token whose embedding row is NaN
	m.TokEmb.W.Data.Row(poison)[0] = float32(math.NaN())
	before := snapshotBits(m)
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 2, Strategy: StrategySliding, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	tr := train.NewTrainer(train.NewAdamW(0), 0.1, 0)
	tr.MaxBadSteps = 2
	inputs, targets := [][]int{{1, 2, poison, 4}}, []int{2, 3, 4, 5}
	tuner.iter = 1 // window [0,1]: two blocks, two segments
	if loss, _, _ := tuner.Step(tr, inputs, targets); !math.IsNaN(loss) {
		t.Fatalf("poisoned batch gave loss %v", loss)
	}
	if tr.StepCount() != 0 {
		t.Fatalf("poisoned step advanced the counter to %d", tr.StepCount())
	}
	if !slices.Equal(before, snapshotBits(m)) {
		t.Fatal("poisoned step mutated the weights")
	}
	defer func() {
		de, ok := recover().(*train.DivergenceError)
		if !ok || de.Consecutive != 2 {
			t.Fatalf("second poisoned step: recover() = %v, want a 2-step *train.DivergenceError", de)
		}
	}()
	tuner.Step(tr, inputs, targets)
}

// snapshotBits flattens every parameter of m to its float32 bits.
func snapshotBits(m *nn.Model) []uint32 {
	var out []uint32
	for _, p := range m.Params() {
		for _, v := range p.Value.Data.Data {
			out = append(out, math.Float32bits(v))
		}
	}
	return out
}

// TestRecomputeStepPoolBalanced asserts the recompute path releases every
// pooled buffer it draws — the property the resource governor relies on
// when it flips recompute on under memory pressure.
func TestRecomputeStepPoolBalanced(t *testing.T) {
	p := tensor.NewPool()
	ag.SetPool(p)
	defer ag.SetPool(nil)
	m := tinyModel(21, 4)
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 4, Strategy: StrategySliding, Segments: 2})
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.MarkovCorpus(8, 16, 500, 2)
	g := tensor.NewRNG(22)
	tr := train.NewTrainer(train.NewAdamW(0.01), 0.01, 1)
	for i := 0; i < 4; i++ {
		inputs, targets := corpus.Batch(g, 2, 8)
		tuner.Step(tr, inputs, targets)
		if use := p.Stats().BytesInUse; use != 0 {
			t.Fatalf("step %d: %d pooled bytes still in use", i, use)
		}
	}
}

// TestSetWindowSizeMidRun exercises the governor's shrink-window rung: the
// width changes between iterations and the cached window parameter sets
// must be rebuilt for the new geometry.
func TestSetWindowSizeMidRun(t *testing.T) {
	m := tinyModel(21, 4)
	tuner, err := NewTuner(m, TunerConfig{WindowSize: 3, Strategy: StrategySliding})
	if err != nil {
		t.Fatal(err)
	}
	corpus := data.MarkovCorpus(8, 16, 500, 2)
	g := tensor.NewRNG(22)
	tr := train.NewTrainer(train.NewAdamW(0.01), 0.01, 1)
	inputs, targets := corpus.Batch(g, 2, 8)
	tuner.Step(tr, inputs, targets)
	if err := tuner.SetWindowSize(9); err == nil {
		t.Fatal("oversized window must be rejected")
	}
	if err := tuner.SetWindowSize(1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		inputs, targets := corpus.Batch(g, 2, 8)
		_, lo, hi := tuner.Step(tr, inputs, targets)
		if hi-lo+1 != 1 {
			t.Fatalf("window [%d,%d] after SetWindowSize(1)", lo, hi)
		}
	}
	// Resetting the iteration counter replays the schedule from the start.
	tuner.iter = 0
	_, _, hi := tuner.Step(tr, inputs, targets)
	if hi != 0 {
		t.Fatalf("window top %d after iteration reset to 0, want 0", hi)
	}
}
