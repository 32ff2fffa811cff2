package luc

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func tinyModel(seed int64, layers int) *nn.Model {
	cfg := nn.Config{Vocab: 16, Dim: 16, Heads: 2, Layers: layers, Hidden: 32, MaxSeq: 8, ExitHeads: false}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

func calibBatch() [][]int {
	return [][]int{{1, 2, 3, 4, 5, 6, 7, 8}, {9, 10, 11, 12, 13, 14, 15, 0}}
}

func TestCandidateEffectiveBits(t *testing.T) {
	c := Candidate{Bits: 4, Sparsity: 0.5}
	if c.EffectiveBits() != 2 {
		t.Fatalf("4b@50%% effective bits %v, want 2", c.EffectiveBits())
	}
	if c.String() != "4b@50%" {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestDefaultCandidatesSorted(t *testing.T) {
	cs := DefaultCandidates()
	if len(cs) != 16 {
		t.Fatalf("grid size %d, want 16", len(cs))
	}
	for i := 1; i < len(cs); i++ {
		if cs[i].EffectiveBits() > cs[i-1].EffectiveBits()+1e-9 {
			t.Fatal("candidates must be sorted by descending effective bits")
		}
	}
}

func TestProbeWeightErrorMonotoneInBits(t *testing.T) {
	m := tinyModel(1, 3)
	cands := []Candidate{{Bits: 8}, {Bits: 4}, {Bits: 2}}
	sens := Probe(m, cands, ProbeOptions{Metric: MetricWeightError})
	for layer := range sens {
		if !(sens[layer][0] < sens[layer][1] && sens[layer][1] < sens[layer][2]) {
			t.Fatalf("layer %d sensitivity not monotone in bits: %v", layer, sens[layer])
		}
	}
}

func TestProbeOutputKLSensitivityOrdering(t *testing.T) {
	m := tinyModel(2, 3)
	cands := []Candidate{{Bits: 8}, {Bits: 2, Sparsity: 0.75}}
	sens := Probe(m, cands, ProbeOptions{Metric: MetricOutputKL, Calib: calibBatch()})
	for layer := range sens {
		if sens[layer][1] <= sens[layer][0] {
			t.Fatalf("layer %d: brutal compression must hurt more than gentle: %v", layer, sens[layer])
		}
		if sens[layer][0] < 0 || math.IsNaN(sens[layer][0]) {
			t.Fatalf("layer %d: invalid KL %v", layer, sens[layer][0])
		}
	}
}

func TestProbeRestoresWeights(t *testing.T) {
	m := tinyModel(3, 2)
	before := m.Blocks[0].WeightMatrices()[0].Clone()
	Probe(m, []Candidate{{Bits: 2, Sparsity: 0.75}}, ProbeOptions{Metric: MetricOutputKL, Calib: calibBatch()})
	after := m.Blocks[0].WeightMatrices()[0]
	if !tensor.AllClose(before, after, 0, 0) {
		t.Fatal("probe must restore weights exactly")
	}
}

// probeRef is the probe as one full forward per candidate: clone the
// layer's weights, compress them with compressTensor sorting each matrix
// afresh, run m.Logits from the embedding up, restore. Probe must equal it
// bit for bit.
func probeRef(m *nn.Model, cands []Candidate, opt ProbeOptions) Sensitivity {
	sens := make(Sensitivity, len(m.Blocks))
	var baseProbs *tensor.Tensor
	if opt.Metric == MetricOutputKL {
		baseProbs = softmaxLogits(m.Logits(opt.Calib).Data)
	}
	for layer, block := range m.Blocks {
		sens[layer] = make([]float64, len(cands))
		weights := block.WeightMatrices()
		for ci, c := range cands {
			saved := make([]*tensor.Tensor, len(weights))
			var sum float64
			for i, w := range weights {
				saved[i] = w.Clone()
				compressTensor(w, c, nil)
				sum += relativeMSE(w, saved[i])
			}
			sens[layer][ci] = sum / float64(len(weights))
			if opt.Metric == MetricOutputKL {
				sens[layer][ci] = meanKL(baseProbs, softmaxLogits(m.Logits(opt.Calib).Data))
			}
			for i, w := range weights {
				w.CopyFrom(saved[i])
			}
		}
	}
	return sens
}

// TestProbeMatchesPerCandidateForward: the probe's reuse — one snapshot and
// one ranking per layer, and the output-KL forward started at the probed
// layer from the base forward's block input — moves no bit of any cell, for
// both metrics, on a model with exit heads and on the full candidate grid
// (every sparsity the masks nest over).
func TestProbeMatchesPerCandidateForward(t *testing.T) {
	cfg := nn.Config{Vocab: 32, Dim: 16, Heads: 2, Layers: 3, Hidden: 32, MaxSeq: 8, ExitHeads: true}
	cands := DefaultCandidates()
	for _, metric := range []Metric{MetricWeightError, MetricOutputKL} {
		opt := ProbeOptions{Metric: metric, Calib: calibBatch()}
		want := probeRef(nn.NewModel(cfg, tensor.NewRNG(11)), cands, opt)
		m := nn.NewModel(cfg, tensor.NewRNG(11))
		got := Probe(m, cands, opt)
		for layer := range want {
			for ci := range want[layer] {
				if math.Float64bits(got[layer][ci]) != math.Float64bits(want[layer][ci]) {
					t.Fatalf("metric %d layer %d %v: probe %v, per-candidate forward %v",
						metric, layer, cands[ci], got[layer][ci], want[layer][ci])
				}
			}
		}
		fresh := nn.NewModel(cfg, tensor.NewRNG(11))
		for li, b := range m.Blocks {
			for wi, w := range b.WeightMatrices() {
				if !tensor.AllClose(w, fresh.Blocks[li].WeightMatrices()[wi], 0, 0) {
					t.Fatalf("metric %d: probe left block %d weight %d changed", metric, li, wi)
				}
			}
		}
	}
}

// syntheticSens builds a sensitivity matrix where layer cost is
// heterogeneous: sensitive layers pay 10× per lost bit.
func syntheticSens(layers int, cands []Candidate, sensitive map[int]bool) Sensitivity {
	s := make(Sensitivity, layers)
	for i := range s {
		s[i] = make([]float64, len(cands))
		w := 1.0
		if sensitive[i] {
			w = 10
		}
		for ci, c := range cands {
			s[i][ci] = w * (8 - c.EffectiveBits()) // linear in compression depth
		}
	}
	return s
}

func TestSearchGreedyMeetsBudget(t *testing.T) {
	cands := DefaultCandidates()
	sens := syntheticSens(6, cands, map[int]bool{0: true, 5: true})
	for _, budget := range []float64{2, 3, 4, 6} {
		p := SearchGreedy(sens, cands, budget)
		if got := p.AvgEffectiveBits(cands); got > budget+1e-9 {
			t.Fatalf("greedy at budget %v achieved %v bits", budget, got)
		}
	}
}

func TestSearchDPMeetsBudgetAndBeatsGreedy(t *testing.T) {
	cands := DefaultCandidates()
	sens := syntheticSens(6, cands, map[int]bool{1: true, 2: true})
	for _, budget := range []float64{2, 3, 4} {
		g := SearchGreedy(sens, cands, budget)
		d := SearchDP(sens, cands, budget)
		if got := d.AvgEffectiveBits(cands); got > budget+1e-9 {
			t.Fatalf("DP at budget %v achieved %v bits", budget, got)
		}
		if d.TotalCost(sens) > g.TotalCost(sens)+1e-9 {
			t.Fatalf("DP cost %v worse than greedy %v at budget %v",
				d.TotalCost(sens), g.TotalCost(sens), budget)
		}
	}
}

func TestSearchSparesSensitiveLayers(t *testing.T) {
	cands := DefaultCandidates()
	sensitive := map[int]bool{2: true}
	sens := syntheticSens(4, cands, sensitive)
	p := SearchDP(sens, cands, 3)
	// The sensitive layer must end with ≥ the average effective bits of
	// the insensitive ones.
	var sensBits, otherBits float64
	for i, ci := range p.Choice {
		if sensitive[i] {
			sensBits = cands[ci].EffectiveBits()
		} else {
			otherBits += cands[ci].EffectiveBits()
		}
	}
	otherBits /= 3
	if sensBits < otherBits {
		t.Fatalf("sensitive layer got %v bits < insensitive mean %v", sensBits, otherBits)
	}
}

func TestLayerwiseBeatsUniformAtEqualBudget(t *testing.T) {
	// The headline LUC property: with heterogeneous sensitivity, the
	// layerwise policy achieves strictly lower total cost than the best
	// uniform policy at the same (or tighter) budget.
	cands := DefaultCandidates()
	sens := syntheticSens(8, cands, map[int]bool{0: true, 1: true})
	budget := 3.0
	uniform := UniformAtBudget(8, cands, budget)
	layerwise := SearchDP(sens, cands, budget)
	if layerwise.AvgEffectiveBits(cands) > budget+1e-9 {
		t.Fatal("layerwise policy exceeds budget")
	}
	if layerwise.TotalCost(sens) >= uniform.TotalCost(sens) {
		t.Fatalf("layerwise cost %v not better than uniform %v",
			layerwise.TotalCost(sens), uniform.TotalCost(sens))
	}
}

func TestUniformAtBudgetPicksTightestFit(t *testing.T) {
	cands := DefaultCandidates()
	p := UniformAtBudget(4, cands, 3)
	got := cands[p.Choice[0]].EffectiveBits()
	if got > 3 {
		t.Fatalf("uniform candidate %v bits exceeds budget", got)
	}
	// grid contains 3b@0% = 3.0 exactly
	if got != 3 {
		t.Fatalf("expected exact 3-bit fit, got %v", got)
	}
}

func TestApplyCompressesInPlace(t *testing.T) {
	m := tinyModel(4, 3)
	cands := []Candidate{{Bits: 4, Sparsity: 0.5}}
	info := Apply(m, Uniform(3, 0), cands)
	if len(info.Layers) != 3 {
		t.Fatal("info must cover every layer")
	}
	if info.AvgEffectiveBits != 2 {
		t.Fatalf("avg effective bits %v, want 2", info.AvgEffectiveBits)
	}
	for li := range info.Layers {
		for wi, w := range m.Blocks[li].WeightMatrices() {
			if got := w.Sparsity(); math.Abs(got-0.5) > 0.02 {
				t.Fatalf("layer %d weight %d sparsity %v, want ≈0.5", li, wi, got)
			}
		}
	}
	bits := info.BlockBits()
	sp := info.BlockSparsity()
	for i := range bits {
		if bits[i] != 4 || sp[i] != 0.5 {
			t.Fatal("accounting accessors wrong")
		}
	}
}

func TestApplyKeepsModelFunctional(t *testing.T) {
	m := tinyModel(5, 3)
	base := m.Logits(calibBatch()).Data.Clone()
	cands := []Candidate{{Bits: 8}}
	Apply(m, Uniform(3, 0), cands)
	compressed := m.Logits(calibBatch()).Data
	// 8-bit compression must change logits only mildly.
	if tensor.AllClose(base, compressed, 0, 0) {
		t.Fatal("compression should change the logits at least slightly")
	}
	diff := tensor.MSE(base, compressed)
	var ms float64
	for _, v := range base.Data {
		ms += float64(v) * float64(v)
	}
	ms /= float64(base.Len())
	if diff/ms > 0.05 {
		t.Fatalf("8-bit compression damaged logits too much: rel MSE %v", diff/ms)
	}
}

func TestApplyPolicyLengthMismatchPanics(t *testing.T) {
	m := tinyModel(6, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched policy must panic")
		}
	}()
	Apply(m, Uniform(2, 0), []Candidate{{Bits: 8}})
}

func TestRefinePolicyImprovesJointKL(t *testing.T) {
	m := tinyModel(7, 4)
	cands := DefaultCandidates()
	calib := calibBatch()
	sens := Probe(m, cands, ProbeOptions{Metric: MetricOutputKL, Calib: calib})
	initial := SearchDP(sens, cands, 2)

	refined := RefinePolicy(m, initial, cands, 2, calib, 3)
	if refined.AvgEffectiveBits(cands) > 2+1e-9 {
		t.Fatal("refined policy exceeds budget")
	}

	// Measure joint KL of both policies on untouched copies.
	jointKL := func(p Policy) float64 {
		trial := tinyModel(7, 4) // same seed → same weights
		base := softmaxLogits(trial.Logits(calib).Data)
		Apply(trial, p, cands)
		return meanKL(base, softmaxLogits(trial.Logits(calib).Data))
	}
	if jointKL(refined) > jointKL(initial)+1e-12 {
		t.Fatalf("refinement made joint KL worse: %v vs %v", jointKL(refined), jointKL(initial))
	}

	// The model itself must be untouched by refinement.
	fresh := tinyModel(7, 4)
	for i, b := range m.Blocks {
		for wi, w := range b.WeightMatrices() {
			if !tensor.AllClose(w, fresh.Blocks[i].WeightMatrices()[wi], 0, 0) {
				t.Fatal("RefinePolicy must restore model weights")
			}
		}
	}
}

func TestRefinePolicyRequiresCalib(t *testing.T) {
	m := tinyModel(8, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("refine without calibration must panic")
		}
	}()
	RefinePolicy(m, Uniform(2, 0), DefaultCandidates(), 4, nil, 1)
}

func TestPropSearchAlwaysWithinBudget(t *testing.T) {
	cands := DefaultCandidates()
	f := func(seed int64, layers8 uint8, budget16 uint16) bool {
		layers := int(layers8%8) + 2
		budget := 2 + float64(budget16%600)/100 // [2, 8)
		g := tensor.NewRNG(seed)
		sens := make(Sensitivity, layers)
		for i := range sens {
			sens[i] = make([]float64, len(cands))
			scale := g.Float64()*9 + 1
			for ci, c := range cands {
				sens[i][ci] = scale * (8 - c.EffectiveBits()) * (1 + g.Float64()*0.1)
			}
		}
		pg := SearchGreedy(sens, cands, budget)
		pd := SearchDP(sens, cands, budget)
		return pg.AvgEffectiveBits(cands) <= budget+1e-9 &&
			pd.AvgEffectiveBits(cands) <= budget+1e-9 &&
			pd.TotalCost(sens) <= pg.TotalCost(sens)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// probeBenchModel is the benchmark's tuning model (six blocks, d128,
// hidden 384, vocab 256, exit heads) and four 32-token calibration
// sequences: the probe BenchmarkProbeOutputKL times and
// TestProbeSensitivityPinned pins.
func probeBenchModel() (*nn.Model, [][]int) {
	cfg := nn.Config{Vocab: 256, Dim: 128, Heads: 4, Layers: 6, Hidden: 384, MaxSeq: 32, ExitHeads: true}
	m := nn.NewModel(cfg, tensor.NewRNG(1))
	g := tensor.NewRNG(2)
	calib := make([][]int, 4)
	for i := range calib {
		calib[i] = make([]int, 32)
		for j := range calib[i] {
			calib[i][j] = g.Intn(cfg.Vocab)
		}
	}
	return m, calib
}

// probeSensitivitySHA is the sha256 of every cell's float64 bits, layer by
// layer, of the output-KL probe of probeBenchModel over the default grid,
// taken from the column-major fake-quant and the comparison-sorted ranking
// the current kernels replaced.
const probeSensitivitySHA = "e58287d1d33a07b96ecfce31bda46c8f3787e553eb77a02ba876a112c8bb82df"

// TestProbeSensitivityPinned holds the probe's 96 cells to their pinned
// bits: a change to the ranking, the pruning, the fake-quant or the forward
// that moves any cell fails it. amd64 only, as TestTuneTrajectoryPinned:
// elsewhere the forward's bits are the platform's own.
func TestProbeSensitivityPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("sensitivity pinned on amd64; this is %s", runtime.GOARCH)
	}
	m, calib := probeBenchModel()
	sens := Probe(m, DefaultCandidates(), ProbeOptions{Metric: MetricOutputKL, Calib: calib})
	h := sha256.New()
	var word [8]byte
	for _, row := range sens {
		for _, v := range row {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != probeSensitivitySHA {
		t.Fatalf("sensitivity sha256 %s, want %s", got, probeSensitivitySHA)
	}
}

// BenchmarkProbeOutputKL probes probeBenchModel over the default grid: 96
// evaluations. BENCH_baseline.json gates its bytes and allocations, which
// grow by ~0.6 GB a probe if the probe goes back to sorting per candidate
// or to full forwards.
func BenchmarkProbeOutputKL(b *testing.B) {
	m, calib := probeBenchModel()
	cands := DefaultCandidates()
	b.ReportAllocs()
	for b.Loop() {
		Probe(m, cands, ProbeOptions{Metric: MetricOutputKL, Calib: calib})
	}
}

// softmaxLogits converts rank-2 logits to row-wise probabilities in a new
// tensor.
func softmaxLogits(logits *tensor.Tensor) *tensor.Tensor {
	out := tensor.New(logits.Shape...)
	softmaxInto(out, logits)
	return out
}
