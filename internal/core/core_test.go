package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"edgellm/internal/adapt"
	ag "edgellm/internal/autograd"
	"edgellm/internal/hwsim"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// quickCfg shrinks the default model for fast unit tests.
func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Model.Layers = 3
	cfg.Model.Dim = 16
	cfg.Model.Heads = 2
	cfg.Model.Hidden = 32
	cfg.Model.Vocab = 16
	cfg.Batch = 2
	cfg.Seq = 12
	return cfg
}

func quickTask() Task { return NewTask(1, 16) }

func TestNewValidatesConfig(t *testing.T) {
	cfg := quickCfg()
	cfg.WindowSize = 99
	if _, err := New(cfg); err == nil {
		t.Fatal("oversized window must be rejected")
	}
	cfg = quickCfg()
	cfg.Model.Dim = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid model config must be rejected")
	}
}

func TestPipelineEndToEnd(t *testing.T) {
	cfg := quickCfg()
	task := quickTask()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	pplBefore := p.EvalPerplexity(task.Eval, 4)

	flat := calibSequences(task.Train, cfg.Batch, cfg.Seq)
	if err := p.Compress(flat); err != nil {
		t.Fatal(err)
	}
	if !p.compressed || len(p.Info.Layers) != cfg.Model.Layers {
		t.Fatal("compression info missing")
	}
	if p.Info.AvgEffectiveBits > cfg.BudgetBits+1e-9 {
		t.Fatalf("policy at %.2f bits exceeds budget %.2f", p.Info.AvgEffectiveBits, cfg.BudgetBits)
	}
	if err := p.Compress(flat); err == nil {
		t.Fatal("double compression must error")
	}

	losses := p.Tune(task.Train, 60)
	if len(losses) != 60 {
		t.Fatal("loss curve length wrong")
	}
	head := (losses[0] + losses[1] + losses[2]) / 3
	tail := (losses[57] + losses[58] + losses[59]) / 3
	if tail >= head {
		t.Fatalf("tuning did not reduce loss: %.4f → %.4f", head, tail)
	}

	cb, ct := task.EvalTail(cfg.Batch, cfg.Seq, 3)
	p.FinishTuning(cb, ct)
	if p.Voter == nil {
		t.Fatal("voter missing after FinishTuning")
	}

	pplAfter := p.EvalPerplexity(task.Eval, 4)
	if math.IsNaN(pplAfter) || pplAfter <= 0 {
		t.Fatalf("bad ppl %v", pplAfter)
	}
	if pplAfter >= pplBefore {
		t.Fatalf("pipeline did not improve ppl: %.3f → %.3f", pplBefore, pplAfter)
	}
}

func TestPipelineMemoryBelowVanilla(t *testing.T) {
	cfg := quickCfg()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := quickTask()
	calib, _ := task.Train.SequentialBatches(cfg.Batch, cfg.Seq, 1)
	if err := p.Compress(calib[0]); err != nil {
		t.Fatal(err)
	}
	mem := p.Memory()
	vanilla := RunOpts{}
	_ = vanilla
	spec := p.MemorySpec()
	spec.TapeBlocks = cfg.Model.Layers
	spec.TrainableElems *= int64(cfg.Model.Layers)
	if mem.Activations <= 0 || mem.Weights <= 0 {
		t.Fatal("memory breakdown must be positive")
	}
	if mem.Total() <= 0 {
		t.Fatal("total must be positive")
	}
}

func TestPipelineIterationCostSchedulingHelps(t *testing.T) {
	cfg := quickCfg()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	naive := p.IterationCost(hwsim.NaiveScheduler{})
	searched := p.IterationCost(hwsim.NewSearchedScheduler())
	if searched.TotalSec > naive.TotalSec {
		t.Fatalf("searched scheduling slower than naive: %v vs %v", searched.TotalSec, naive.TotalSec)
	}
}

func TestMethodRunnersProduceSaneResults(t *testing.T) {
	cfg := quickCfg()
	task := quickTask()
	opts := RunOpts{Iters: 25, MCQIters: 15, EvalBatches: 2}

	ctx := context.Background()
	vanilla := RunVanillaFT(ctx, cfg, task, opts)
	ckpt := RunGradCheckpoint(ctx, cfg, task, opts, 2)
	lora := RunLoRA(ctx, cfg, task, opts, 2)
	lst := RunLST(ctx, cfg, task, opts, 2)
	freeze := RunLayerFreeze(ctx, cfg, task, opts, 1)
	edge := RunEdgeLLM(ctx, cfg, task, opts)

	for _, m := range []MethodResult{vanilla, ckpt, lora, lst, freeze, edge} {
		if math.IsNaN(m.PPL) || m.PPL <= 1 {
			t.Fatalf("%s: bad ppl %v", m.Name, m.PPL)
		}
		if m.MCQAcc < 0 || m.MCQAcc > 1 {
			t.Fatalf("%s: bad MCQ acc %v", m.Name, m.MCQAcc)
		}
		if m.TrainableParams <= 0 || m.Memory.Total() <= 0 || m.IterCost.TotalSec <= 0 {
			t.Fatalf("%s: bad accounting %+v", m.Name, m)
		}
	}
	if lora.TrainableParams >= vanilla.TrainableParams {
		t.Fatal("LoRA must train fewer params than vanilla")
	}
	if lst.TrainableParams >= vanilla.TrainableParams {
		t.Fatal("LST must train fewer params than vanilla")
	}
	if lst.Memory.Activations >= vanilla.Memory.Activations {
		t.Fatal("LST must retain fewer activations than vanilla")
	}
	if ckpt.Memory.Activations >= vanilla.Memory.Activations {
		t.Fatal("grad checkpointing must retain fewer activations than vanilla")
	}
	if ckpt.IterCost.TotalSec <= vanilla.IterCost.TotalSec {
		t.Fatal("grad checkpointing must pay extra latency for recompute")
	}
	if edge.Memory.Total() >= vanilla.Memory.Total() {
		t.Fatal("Edge-LLM must use less tuning memory than vanilla")
	}
	if edge.IterCost.TotalSec >= vanilla.IterCost.TotalSec {
		t.Fatal("Edge-LLM iteration must be faster than vanilla")
	}

	// The six rows at table precision, recorded at the commit before the
	// baselines moved onto the single runner (PR 12's parent): seeds, RNG
	// draw order and accounting must survive any rewrite of the runner.
	// Go fuses multiply-add on arm64, ppc64le, s390x and riscv64, which
	// moves float32 training trajectories in the last bits and the rounded
	// PPL/accuracy with them, so the exact comparison is amd64-only.
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden rows recorded on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	golden := []string{
		"Vanilla FT|10.720|27.1%|9632|245504|0.70 ms",
		"Grad-ckpt FT|10.720|27.1%|9632|217088|0.93 ms",
		"LoRA|13.655|29.2%|1632|149504|0.47 ms",
		"LST|15.952|27.1%|843|60164|0.24 ms",
		"Layer-freeze|14.667|29.2%|2864|107456|0.40 ms",
		"Edge-LLM|14.777|35.4%|5456|141824|0.42 ms",
	}
	for i, m := range []MethodResult{vanilla, ckpt, lora, lst, freeze, edge} {
		got := fmt.Sprintf("%s|%.3f|%.1f%%|%d|%d|%s", m.Name, m.PPL, m.MCQAcc*100,
			m.TrainableParams, m.Memory.Total(), fmtMS(m.IterCost.TotalSec))
		if got != golden[i] {
			t.Errorf("row %d = %q, recorded %q", i, got, golden[i])
		}
	}
}

// TestBaselineAdmissionEqualsTable: for every baseline, what the governor
// prices the un-degraded plan at is the memory total the table reports for
// an ungoverned run — admission and table are one function — and the
// analytic trainable count behind both is the element count of the module
// the method actually builds. (Before PR 12 the governor had its own
// estimators, and LST's under-priced the table by 23%.)
func TestBaselineAdmissionEqualsTable(t *testing.T) {
	cfg := quickCfg()
	task := quickTask()
	opts := RunOpts{Iters: 1, EvalBatches: 1}
	ctx := context.Background()
	for _, b := range []baseline{
		vanillaFT(cfg), gradCheckpoint(cfg, 3), loraBaseline(cfg, 4), lstBaseline(cfg, 4), layerFreeze(cfg, 2),
	} {
		table := runBaseline(ctx, b, cfg, task, opts)

		// Under a 1-byte budget the first recorded rung's BeforeBytes is
		// the governor's estimate of the un-degraded plan.
		gov, undo := installGovernor(1)
		runBaseline(ctx, b, cfg, task, opts)
		undo()
		ds := gov.Decisions()
		if len(ds) == 0 {
			t.Fatalf("%s: 1-byte budget recorded no decision", b.name)
		}
		if ds[0].BeforeBytes != table.Memory.Total() {
			t.Errorf("%s: governor admits %d B, table reports %d B", b.name, ds[0].BeforeBytes, table.Memory.Total())
		}

		mod, _ := b.build(nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed)), b.plan)
		if built := int64(nn.NumParams(mod)); built != table.TrainableParams {
			t.Errorf("%s: analytic trainable count %d, built module has %d", b.name, table.TrainableParams, built)
		}
	}

	// Edge-LLM, the sixth row: the governor admits the pipeline's plan at
	// what the compressed pipeline's table column reports (the LUC search
	// spends this budget exactly, so the per-layer policy and the uniform
	// budget price alike).
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Compress(calibSequences(task.Train, cfg.Batch, cfg.Seq)); err != nil {
		t.Fatal(err)
	}
	gov, undo := installGovernor(1)
	_, err = New(cfg)
	undo()
	if err != nil {
		t.Fatal(err)
	}
	if ds := gov.Decisions(); len(ds) == 0 || ds[0].BeforeBytes != p.Memory().Total() {
		t.Errorf("Edge-LLM: governor decisions %+v, table reports %d B", ds, p.Memory().Total())
	}
}

func TestSensitivityStrategyIntegration(t *testing.T) {
	cfg := quickCfg()
	cfg.Strategy = adapt.StrategySensitivity
	task := quickTask()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// StartTuning before Compress must fail for this strategy.
	if err := p.StartTuning(); err == nil {
		t.Fatal("sensitivity strategy without probe must error")
	}
	calib, _ := task.Train.SequentialBatches(cfg.Batch, cfg.Seq, 1)
	if err := p.Compress(calib[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.StartTuning(); err != nil {
		t.Fatal(err)
	}
	losses := p.Tune(task.Train, 10)
	if len(losses) != 10 {
		t.Fatal("tuning with sensitivity strategy failed")
	}
}

func TestTaskProtocol(t *testing.T) {
	cfg := quickCfg()
	task := NewTask(9, cfg.Model.Vocab)

	// Source and target domains must be different chains.
	same := true
	for i := 0; i < 1000; i++ {
		if task.Pretrain.Tokens[i] != task.Train.Tokens[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("pretrain and adaptation corpora must differ")
	}

	// EnsureBase is idempotent: the snapshot is built once.
	task.EnsureBase(context.Background(), cfg, 10)
	snap := task.Base
	task.EnsureBase(context.Background(), cfg, 10)
	if &task.Base[0] != &snap[0] {
		t.Fatal("EnsureBase must not rebuild an existing base")
	}

	// ApplyBase restores the snapshot exactly.
	m := nn.NewModel(cfg.Model, tensor.NewRNG(999)) // different init
	task.ApplyBase(m)
	for i, p := range m.Params() {
		if !tensor.AllClose(p.Value.Data, snap[i], 0, 0) {
			t.Fatalf("ApplyBase mismatch at %s", p.Name)
		}
	}

	// Eval tails must come from beyond the training streams.
	sb, _ := task.SourceEvalTail(2, 8, 2)
	tb, _ := task.EvalTail(2, 8, 2)
	if len(sb) == 0 || len(tb) == 0 {
		t.Fatal("eval tails empty")
	}
}

func TestPretrainedBaseBeatsRandomOnSource(t *testing.T) {
	cfg := quickCfg()
	task := NewTask(11, cfg.Model.Vocab)
	task.EnsureBase(context.Background(), cfg, 120)

	random := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	pretrained := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	task.ApplyBase(pretrained)

	batches, targets := task.SourceEvalTail(cfg.Batch, cfg.Seq, 4)
	pplRandom := train.EvalPerplexityWith(func(b [][]int) *ag.Value { return random.Logits(b) }, batches, targets)
	pplBase := train.EvalPerplexityWith(func(b [][]int) *ag.Value { return pretrained.Logits(b) }, batches, targets)
	if pplBase >= pplRandom {
		t.Fatalf("pretrained base (%.2f) must beat random init (%.2f) on source", pplBase, pplRandom)
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{ID: "X", Title: "demo", Header: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddRow("333", "4")
	s := r.String()
	if !strings.Contains(s, "== X: demo ==") || !strings.Contains(s, "333") {
		t.Fatalf("bad text render:\n%s", s)
	}
	md := r.Markdown()
	if !strings.Contains(md, "| a | bb |") || !strings.Contains(md, "| 333 | 4 |") {
		t.Fatalf("bad markdown render:\n%s", md)
	}
}

func TestFmtHelpers(t *testing.T) {
	if fmtBytes(512) != "512 B" || fmtBytes(2048) != "2.00 KiB" ||
		!strings.Contains(fmtBytes(5<<20), "MiB") || !strings.Contains(fmtBytes(3<<30), "GiB") {
		t.Fatal("fmtBytes wrong")
	}
	if fmtMS(0.0015) != "1.50 ms" {
		t.Fatalf("fmtMS wrong: %s", fmtMS(0.0015))
	}
}

func TestAnalyticExperimentsShapes(t *testing.T) {
	// The fully analytic experiments are fast enough to run whole in tests.
	t3 := ExperimentT3(context.Background())
	if len(t3.Rows) != 4 {
		t.Fatalf("T3 rows %d", len(t3.Rows))
	}
	// Edge-LLM searched must be the fastest row and ≥ 2× over the vanilla
	// searched baseline.
	if !strings.HasSuffix(t3.Rows[3][5], "x") {
		t.Fatal("T3 speedup column malformed")
	}

	f1 := ExperimentF1(context.Background())
	if len(f1.Rows) != 5 {
		t.Fatalf("F1 rows %d", len(f1.Rows))
	}
	f4 := ExperimentF4(context.Background())
	if len(f4.Rows) != 5 {
		t.Fatalf("F4 rows %d", len(f4.Rows))
	}
	f5 := ExperimentF5(context.Background())
	if len(f5.Rows) != 4 {
		t.Fatalf("F5 rows %d", len(f5.Rows))
	}
}
