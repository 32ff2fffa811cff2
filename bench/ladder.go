package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"edgellm/internal/adapt"
	ag "edgellm/internal/autograd"
	"edgellm/internal/govern"
	"edgellm/internal/hwsim"
	"edgellm/internal/luc"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/prune"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// The ladder times each layer from outside, one rung at a time, bottom up:
//
//	serving: tensor kernels -> nn.Decoder.StepBatch -> serve.Scheduler -> serve.Server over HTTP
//	tuning:  luc / hwsim, tensor kernels -> adapt.Tuner.Step -> core.Pipeline
//
// A rung's time contains the rungs below it, so a layer's self time is the
// difference between adjacent rungs (nn.step_self_ms, serve.sched_self_ms_per_step,
// serve.http_self_share, adapt.window_vs_full). The top rung of each side is
// the workload itself.

// batchSizes are the occupancies the serving workloads decode at.
var batchSizes = []int{1, 2, 8}

// perLayer is every per-layer metric, in ladder order. Every traced run
// reports every one: rungs that do not belong to the run's workload are
// probed with chat_f32's request shape (serving side) or tune_window's
// configuration (tuning side).
var perLayer = []metricDef{
	{Name: "tensor.memcpy_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.dense_step_ms.b1", Unit: "ms", Better: "lower"},
	{Name: "tensor.dense_step_ms.b2", Unit: "ms", Better: "lower"},
	{Name: "tensor.dense_step_ms.b8", Unit: "ms", Better: "lower"},
	{Name: "tensor.dense_gbps.b1", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.dense_gflops.b8", Unit: "GFLOP/s", Better: "higher"},
	{Name: "tensor.packed_step_ms.b1", Unit: "ms", Better: "lower"},
	{Name: "tensor.packed_step_ms.b2", Unit: "ms", Better: "lower"},
	{Name: "tensor.packed_step_ms.b8", Unit: "ms", Better: "lower"},
	{Name: "tensor.packed_gbps.b1", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.packed_vs_dense.b1", Unit: "ratio", Better: "higher"},
	{Name: "tensor.packed_vs_dense.b8", Unit: "ratio", Better: "higher"},
	{Name: "tensor.train_block_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.allocs_per_step.b8", Unit: "count", Better: "lower"},
	{Name: "tensor.pool_hit_ratio", Unit: "ratio", Better: "higher"},

	{Name: "quant.decode_rows_ms", Unit: "ms", Better: "lower"},
	{Name: "quant.pack_ms", Unit: "ms", Better: "lower"},
	{Name: "quant.weight_bytes_packed", Unit: "bytes", Better: "lower"},
	{Name: "quant.weight_bytes_f32", Unit: "bytes", Better: "lower"},
	{Name: "quant.fakequant_ms", Unit: "ms", Better: "lower"},
	{Name: "prune.magnitude_mask_ms", Unit: "ms", Better: "lower"},

	{Name: "nn.decode_step_ms.f32.b1", Unit: "ms", Better: "lower"},
	{Name: "nn.decode_step_ms.f32.b2", Unit: "ms", Better: "lower"},
	{Name: "nn.decode_step_ms.f32.b8", Unit: "ms", Better: "lower"},
	{Name: "nn.decode_step_ms.p4.b1", Unit: "ms", Better: "lower"},
	{Name: "nn.decode_step_ms.p4.b2", Unit: "ms", Better: "lower"},
	{Name: "nn.decode_step_ms.p4.b8", Unit: "ms", Better: "lower"},
	{Name: "nn.step_self_ms.f32.b2", Unit: "ms", Better: "lower"},
	{Name: "nn.step_self_ms.p4.b2", Unit: "ms", Better: "lower"},
	{Name: "nn.decode_step_ms.f32.b1.deep", Unit: "ms", Better: "lower"},
	{Name: "nn.prefill_ms.p64.f32", Unit: "ms", Better: "lower"},
	{Name: "nn.prefill_ms.p64.p4", Unit: "ms", Better: "lower"},
	{Name: "nn.sample_us", Unit: "us", Better: "lower"},
	{Name: "nn.set_adapter_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.pack_model_ms", Unit: "ms", Better: "lower"},
	{Name: "nn.allocs_per_step.b1", Unit: "count", Better: "lower"},
	{Name: "nn.allocs_per_step.b8", Unit: "count", Better: "lower"},
	{Name: "nn.kv_arena_cap_bytes", Unit: "bytes", Better: "lower"},
	{Name: "nn.kv_arena_peak_active_bytes", Unit: "bytes", Better: "lower"},

	{Name: "serve.sched_tok_s", Unit: "tok/s", Better: "higher"},
	{Name: "serve.http_self_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.sched_self_ms_per_step", Unit: "ms", Better: "lower"},
	{Name: "serve.steps", Unit: "count", Better: "lower"},
	{Name: "serve.batch_occupancy", Unit: "tok/step", Better: "higher"},
	{Name: "serve.prompt_token_share", Unit: "ratio", Better: "lower"},
	{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.client_minus_server_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "serve.adapter_swaps", Unit: "count", Better: "lower"},
	{Name: "serve.adapter_loads", Unit: "count", Better: "lower"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.allocs_per_token", Unit: "count", Better: "lower"},
	{Name: "serve.drain_ms", Unit: "ms", Better: "lower"},

	{Name: "govern.admission_ns", Unit: "ns", Better: "lower"},
	{Name: "govern.kv_reserved_bytes_per_req", Unit: "bytes", Better: "lower"},

	{Name: "luc.probe_s", Unit: "s", Better: "lower"},
	{Name: "luc.search_ms", Unit: "ms", Better: "lower"},
	{Name: "luc.apply_ms", Unit: "ms", Better: "lower"},
	{Name: "luc.probe_evals", Unit: "count", Better: "lower"},
	{Name: "luc.avg_effective_bits", Unit: "bits", Better: "lower"},
	{Name: "hwsim.search_ms", Unit: "ms", Better: "lower"},
	{Name: "hwsim.schedule_evals", Unit: "count", Better: "lower"},
	{Name: "hwsim.sim_speedup", Unit: "ratio", Better: "higher"},

	{Name: "data.batch_us", Unit: "us", Better: "lower"},
	{Name: "autograd.forward_ms.full", Unit: "ms", Better: "lower"},
	{Name: "train.full_iter_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "adapt.step_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "adapt.window_vs_full", Unit: "ratio", Better: "higher"},
	{Name: "adapt.calibrate_ms", Unit: "ms", Better: "lower"},
	{Name: "adapt.vote_forward_ms", Unit: "ms", Better: "lower"},
	{Name: "adapt.backprop_depth_mean", Unit: "layers", Better: "lower"},
	{Name: "train.allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "train.bytes_per_step", Unit: "bytes", Better: "lower"},
	{Name: "train.nonfinite_steps", Unit: "count", Better: "lower"},

	{Name: "host.clock_slowdown", Unit: "ratio", Better: "lower"},
	{Name: "client.tok_s_wall", Unit: "tok/s", Better: "higher"},
	{Name: "client.ttft_ms_p50_wall", Unit: "ms", Better: "lower"},
	{Name: "client.itl_ms_p50_wall", Unit: "ms", Better: "lower"},
	{Name: "client.ttft_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "client.ttft_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.ttft_samples", Unit: "count", Better: "higher"},
	{Name: "client.itl_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "client.itl_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.itl_samples", Unit: "count", Better: "higher"},
	{Name: "client.req_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "obsv.trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "obsv.spans_recorded", Unit: "count", Better: "lower"},
}

// ladder collects per-layer values and wraps each probe in a span.
type ladder struct {
	m    map[string]float64
	tr   *tracer
	root int
	seed int64
}

// timeMedian runs f n times and returns the median wall time in ms.
func timeMedian(n int, f func()) float64 {
	d := make([]float64, n)
	for i := range d {
		start := time.Now()
		f()
		d[i] = ms(time.Since(start))
	}
	return median(d)
}

// stepWeights lists the 29 weight matrices one decode step multiplies by:
// seven per block and the LM head.
func stepWeights(m *nn.Model) (blocks []*tensor.Tensor, head *tensor.Tensor) {
	for _, blk := range m.Blocks {
		blocks = append(blocks, blk.WeightMatrices()...)
	}
	return blocks, m.LMHead.W.Data
}

// operands allocates an input and an output of b rows for each weight.
func operands(rng *tensor.RNG, ws []*tensor.Tensor, b int) (in, out []*tensor.Tensor) {
	for _, w := range ws {
		in = append(in, rng.Normal(0, 1, b, w.Rows()))
		out = append(out, tensor.New(b, w.Cols()))
	}
	return in, out
}

// tensorRung times the matmul set of one decode step, dense and packed,
// and the forward+backward matmul set of one tuning block. Bytes and MACs
// are computed from the shapes, not counted by hardware.
func (l *ladder) tensorRung(m *nn.Model) {
	id := l.tr.begin("ladder.tensor", l.root, "")
	defer l.tr.end(id)
	const reps = 9
	rng := tensor.NewRNG(l.seed)

	src, dst := make([]byte, 64<<20), make([]byte, 64<<20)
	copy(dst, src) // touch every page before timing
	l.m["tensor.memcpy_gbps"] = float64(len(src)) / 1e9 / (timeMedian(5, func() { copy(dst, src) }) / 1e3)

	blocks, head := stepWeights(m)
	all := append(append([]*tensor.Tensor(nil), blocks...), head)
	packed := make([]*quant.Packed, len(blocks))
	var denseBytes, packedBytes, macs float64
	for i, w := range blocks {
		packed[i] = quant.Pack(w, 4)
		packedBytes += float64(packed[i].StorageBytes())
	}
	for _, w := range all {
		denseBytes += float64(w.Len() * 4)
		macs += float64(w.Len())
	}
	packedBytes += float64(head.Len() * 4) // the LM head stays float32
	scratch := tensor.NewPackedScratch()
	for _, b := range batchSizes {
		in, out := operands(rng, all, b)
		dense := func() {
			for i, w := range all {
				tensor.MatMulInto(out[i], in[i], w)
			}
		}
		pack := func() {
			for i, p := range packed {
				tensor.MatMulPackedInto(out[i], in[i], p, scratch)
			}
			last := len(all) - 1
			tensor.MatMulInto(out[last], in[last], head)
		}
		dense()
		pack()
		d, p := timeMedian(reps, dense), timeMedian(reps, pack)
		l.m[fmt.Sprintf("tensor.dense_step_ms.b%d", b)] = d
		l.m[fmt.Sprintf("tensor.packed_step_ms.b%d", b)] = p
		switch b {
		case 1:
			l.m["tensor.dense_gbps.b1"] = denseBytes / 1e9 / (d / 1e3)
			l.m["tensor.packed_gbps.b1"] = packedBytes / 1e9 / (p / 1e3)
			l.m["tensor.packed_vs_dense.b1"] = d / p
		case 8:
			l.m["tensor.dense_gflops.b8"] = 2 * macs * 8 / 1e9 / (d / 1e3)
			l.m["tensor.packed_vs_dense.b8"] = d / p
			before, _ := mallocs()
			for i := 0; i < reps; i++ {
				dense()
			}
			after, _ := mallocs()
			l.m["tensor.allocs_per_step.b8"] = float64(after-before) / reps
		}
	}

	// One tuning block at batch*seq rows: y = x·W forward, then
	// dx = dy·Wᵀ and dW = xᵀ·dy backward, for each of its seven weights.
	tm := nn.NewModel(tuneModel, tensor.NewRNG(serveModelSeed))
	ws := tm.Blocks[0].WeightMatrices()
	rows := tuneBatch * tuneSeq
	x, y := operands(rng, ws, rows)
	var dx, dw []*tensor.Tensor
	for _, w := range ws {
		dx = append(dx, tensor.New(rows, w.Rows()))
		dw = append(dw, tensor.New(w.Rows(), w.Cols()))
	}
	block := func() {
		for i, w := range ws {
			tensor.MatMulInto(y[i], x[i], w)
			tensor.MatMulTInto(dx[i], y[i], w)
			tensor.TMatMulInto(dw[i], x[i], y[i])
		}
	}
	block()
	l.m["tensor.train_block_ms"] = timeMedian(reps, block)
}

// quantRung times the packed format's read side (bit extraction, the share
// of a packed step that is not multiply) and write side (pack), and the
// compress primitives LUC calls on one tuning-model matrix.
func (l *ladder) quantRung(m *nn.Model) {
	id := l.tr.begin("ladder.quant", l.root, "")
	defer l.tr.end(id)
	blocks, _ := stepWeights(m)
	var packed []*quant.Packed
	l.m["quant.pack_ms"] = timeMedian(3, func() {
		packed = packed[:0]
		for _, w := range blocks {
			packed = append(packed, quant.Pack(w, 4))
		}
	})
	var f32Bytes, packedBytes int64
	for i, w := range blocks {
		f32Bytes += int64(w.Len()) * 4
		packedBytes += packed[i].StorageBytes()
	}
	l.m["quant.weight_bytes_f32"] = float64(f32Bytes)
	l.m["quant.weight_bytes_packed"] = float64(packedBytes)

	const slab = 64 // rows per decode call, as the fused kernel decodes
	buf := make([]float32, slab*serveModel.Hidden)
	l.m["quant.decode_rows_ms"] = timeMedian(5, func() {
		for _, p := range packed {
			for lo := 0; lo < p.Rows; lo += slab {
				p.DecodeRowsInto(buf, lo, min(lo+slab, p.Rows), 0, p.Cols)
			}
		}
	})

	w := tensor.NewRNG(l.seed).Normal(0, 0.05, tuneModel.Hidden, tuneModel.Dim)
	scheme := quant.Scheme{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 16}
	l.m["quant.fakequant_ms"] = timeMedian(9, func() { scheme.FakeQuantInPlace(w.Clone()) })
	l.m["prune.magnitude_mask_ms"] = timeMedian(9, func() { prune.MagnitudeMask(w, 0.5) })
}

// decodeSteps advances every slot of dec by one token from position `from`
// to position `to`, and returns the wall time of each step.
func decodeSteps(dec *nn.Decoder, rng *tensor.RNG, slots []int, from, to int) ([]float64, error) {
	tokens := make([]int, len(slots))
	var out []float64
	for pos := from; pos < to; pos++ {
		for i := range tokens {
			tokens[i] = rng.Intn(serveModel.Vocab)
		}
		start := time.Now()
		if _, err := dec.StepBatch(tokens, slots); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(start)))
	}
	return out, nil
}

// nnRung times bare StepBatch on float32 and packed weights at each batch
// size, over the positions a 48-token chat decode visits, plus prefill of a
// 64-token prompt, deep positions, sampling and an adapter swap.
func (l *ladder) nnRung(f32 *nn.Model) error {
	id := l.tr.begin("ladder.nn", l.root, "")
	defer l.tr.end(id)
	rng := tensor.NewRNG(l.seed)
	p4 := nn.NewModel(serveModel, tensor.NewRNG(serveModelSeed))
	pool := tensor.NewPool()
	var pm *nn.PackedModel
	var err error
	l.m["nn.pack_model_ms"] = timeMedian(1, func() { pm, err = packUniform4(p4) })
	if err != nil {
		return err
	}
	const warmTo, stepTo, deepFrom = 8, 56, 96
	for _, v := range []struct {
		name  string
		model *nn.Model
		pm    *nn.PackedModel // nil decodes float32 weights
	}{{"f32", f32, nil}, {"p4", p4, pm}} {
		for _, b := range batchSizes {
			dec := nn.NewBatchDecoder(v.model, b, pool)
			if err := dec.SetPacked(v.pm); err != nil {
				return err
			}
			slots := make([]int, b)
			for i := range slots {
				if slots[i], err = dec.Acquire(); err != nil {
					return err
				}
			}
			if _, err := decodeSteps(dec, rng, slots, 0, warmTo); err != nil {
				return err
			}
			before, _ := mallocs()
			steps, err := decodeSteps(dec, rng, slots, warmTo, stepTo)
			after, _ := mallocs()
			if err != nil {
				return err
			}
			l.m[fmt.Sprintf("nn.decode_step_ms.%s.b%d", v.name, b)] = median(steps)
			if v.pm == nil && b != 2 {
				// The timing slice's own growth is the only allocation
				// outside StepBatch; it is a handful per 48 steps.
				l.m[fmt.Sprintf("nn.allocs_per_step.b%d", b)] = float64(after-before) / float64(len(steps))
			}
			if v.pm == nil && b == 1 {
				if _, err := decodeSteps(dec, rng, slots, stepTo, deepFrom); err != nil {
					return err
				}
				deep, err := decodeSteps(dec, rng, slots, deepFrom, serveModel.MaxSeq)
				if err != nil {
					return err
				}
				l.m["nn.decode_step_ms.f32.b1.deep"] = median(deep)
			}
			if v.pm == nil && b == 8 {
				l.m["nn.kv_arena_cap_bytes"] = float64(dec.ArenaCapBytes())
				l.m["nn.kv_arena_peak_active_bytes"] = float64(dec.ArenaActiveBytes())
			}
			dec.Close()
		}
		dec := nn.NewBatchDecoder(v.model, 1, pool)
		if err := dec.SetPacked(v.pm); err != nil {
			return err
		}
		var perr error
		l.m["nn.prefill_ms.p64."+v.name] = timeMedian(3, func() {
			dec.Reset()
			for i := 0; i < 64; i++ {
				if _, err := dec.Step(rng.Intn(serveModel.Vocab)); err != nil {
					perr = err
				}
			}
		})
		dec.Close()
		if perr != nil {
			return perr
		}
	}
	l.m["nn.step_self_ms.f32.b2"] = l.m["nn.decode_step_ms.f32.b2"] - l.m["tensor.dense_step_ms.b2"]
	l.m["nn.step_self_ms.p4.b2"] = l.m["nn.decode_step_ms.p4.b2"] - l.m["tensor.packed_step_ms.b2"]

	logits := rng.Normal(0, 1, 1, serveModel.Vocab).Data
	cfg, g := sampleConfig(l.seed, 1), tensor.NewRNG(l.seed)
	const draws = 200
	l.m["nn.sample_us"] = 1e3 / draws * timeMedian(5, func() {
		for i := 0; i < draws; i++ {
			nn.SampleLogits(logits, cfg, g)
		}
	})

	adapters, err := genAdapters(l.seed)
	if err != nil {
		return err
	}
	dec := nn.NewBatchDecoder(f32, 1, pool)
	defer dec.Close()
	if err := dec.SetAdapter(adapters[0]); err != nil {
		return err
	}
	next := 1
	l.m["nn.set_adapter_ms"] = timeMedian(6, func() {
		err = dec.SetAdapter(adapters[next])
		next = 1 - next
	})
	return err
}

// governRung times the admission ledger's reserve/release pair and records
// what one request of shape v reserves. Neither is expected to move any
// end-to-end number; they are listed so that the prediction can be checked.
func (l *ladder) governRung(v spec) {
	adm := govern.NewAdmission(govern.Budget{MemoryBytes: kvBudgetBytes})
	need := govern.ServeKVBytes(serveModel.Layers, serveModel.Dim, v.promptLen+v.outTokens)
	const pairs = 100000
	start := time.Now()
	for i := 0; i < pairs; i++ {
		if adm.TryReserve(need) == nil {
			adm.Release(need)
		}
	}
	l.m["govern.admission_ns"] = float64(time.Since(start)) / pairs
	l.m["govern.kv_reserved_bytes_per_req"] = float64(need)
}

// Iterations timed on each tuning rung: enough for a median, few enough
// that a traced run stays short.
const (
	fullIters  = 8
	adaptIters = 12
)

// tuneRungs probes the tuning side below core.Pipeline: LUC's probe, search
// and apply, the schedule search, a batch draw, a full forward, vanilla
// full-depth training steps (the single-path baseline) and windowed
// adapt.Tuner steps on the compressed model, then vote calibration and the
// voting forward.
func (l *ladder) tuneRungs() error {
	id := l.tr.begin("ladder.tune", l.root, "")
	defer l.tr.end(id)
	in := genTuneInputs(l.seed)
	rng := tensor.NewRNG(l.seed)
	cfg := tuneConfig()
	cands := luc.DefaultCandidates()
	ag.SetPool(tensor.NewPool())

	compressed := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	var sens luc.Sensitivity
	var policy luc.Policy
	var info luc.CompressionInfo
	snap, err := withRecorder(nil, func() {
		l.m["luc.probe_s"] = timeMedian(1, func() {
			sens = luc.Probe(compressed, cands, luc.ProbeOptions{Metric: cfg.ProbeMetric, Calib: in.calib})
		}) / 1e3
		l.m["luc.search_ms"] = timeMedian(1, func() { policy = luc.SearchDP(sens, cands, cfg.BudgetBits) })
		l.m["luc.apply_ms"] = timeMedian(1, func() { info = luc.Apply(compressed, policy, cands) })
	})
	if err != nil {
		return err
	}
	l.m["luc.probe_evals"] = float64(snap.Counters["luc.probe_evals"])
	l.m["luc.avg_effective_bits"] = info.AvgEffectiveBits

	// Simulated cost of a vanilla iteration against the mean windowed
	// iteration on the compressed model with searched schedules.
	tcfg := adapt.TunerConfig{WindowSize: cfg.WindowSize, Strategy: cfg.Strategy}
	var speedup float64
	snap, err = withRecorder(nil, func() {
		l.m["hwsim.search_ms"] = timeMedian(1, func() {
			sched := hwsim.NewSearchedScheduler()
			comp := make([]hwsim.LayerCompression, cfg.Model.Layers)
			for i, li := range info.Layers {
				comp[i] = hwsim.LayerCompression{Bits: li.Candidate.Bits, Sparsity: li.Candidate.Sparsity}
			}
			var edge hwsim.Cost
			for i := 0; i < cfg.Model.Layers; i++ {
				lo, hi := tcfg.WindowAt(cfg.Model.Layers, i)
				edge = edge.Add(hwsim.IterationCost(cfg.Device, sched, hwsim.IterationSpec{
					Cfg: cfg.Model, Batch: cfg.Batch, Seq: cfg.Seq, Compression: comp, WindowLo: lo, WindowHi: hi,
				}))
			}
			edge.TotalSec /= float64(cfg.Model.Layers)
			vanilla := hwsim.IterationCost(cfg.Device, hwsim.NaiveScheduler{}, hwsim.VanillaIteration(cfg.Model, cfg.Batch, cfg.Seq))
			speedup = hwsim.Speedup(vanilla, edge)
		})
	})
	if err != nil {
		return err
	}
	l.m["hwsim.schedule_evals"] = float64(snap.Counters["hwsim.schedule_evals"])
	l.m["hwsim.sim_speedup"] = speedup

	const draws = 200
	var inputs [][]int
	var targets []int
	l.m["data.batch_us"] = 1e3 / draws * timeMedian(5, func() {
		for i := 0; i < draws; i++ {
			inputs, targets = in.train.Batch(rng, cfg.Batch, cfg.Seq)
		}
	})

	full := nn.NewModel(cfg.Model, tensor.NewRNG(cfg.Seed))
	full.SetAllTrainable(true)
	l.m["autograd.forward_ms.full"] = timeMedian(5, func() {
		ag.ReleaseTape(ag.CrossEntropy(full.Logits(inputs), targets, -1))
	})
	newTrainer := func() *train.Trainer { return train.NewTrainer(train.NewAdamW(cfg.WeightDecay), cfg.LR, cfg.ClipNorm) }
	tr := newTrainer()
	nonFinite := 0
	fullStep := func() {
		inputs, targets = in.train.Batch(rng, cfg.Batch, cfg.Seq)
		if !finite(tr.Step(full, ag.CrossEntropy(full.Logits(inputs), targets, -1))) {
			nonFinite++
		}
	}
	fullStep() // the first step allocates optimizer state
	allocs0, bytes0 := mallocs()
	l.m["train.full_iter_ms_p50"] = timeMedian(fullIters, fullStep)
	allocs1, bytes1 := mallocs()
	l.m["train.allocs_per_step"] = float64(allocs1-allocs0) / fullIters
	l.m["train.bytes_per_step"] = float64(bytes1-bytes0) / fullIters

	tuner, err := adapt.NewTuner(compressed, tcfg)
	if err != nil {
		return err
	}
	tr = newTrainer()
	var depth float64
	adaptStep := func() {
		inputs, targets = in.train.Batch(rng, cfg.Batch, cfg.Seq)
		loss, lo, hi := tuner.Step(tr, inputs, targets)
		depth += float64(hi - lo + 1)
		if !finite(loss) {
			nonFinite++
		}
	}
	for i := 0; i < cfg.Model.Layers; i++ {
		adaptStep() // one pass over the window cycle allocates every window's optimizer state
	}
	depth = 0
	l.m["adapt.step_ms_p50"] = timeMedian(adaptIters, adaptStep)
	l.m["adapt.backprop_depth_mean"] = depth / adaptIters
	l.m["adapt.window_vs_full"] = l.m["train.full_iter_ms_p50"] / l.m["adapt.step_ms_p50"]
	l.m["train.nonfinite_steps"] = float64(nonFinite)

	voter := adapt.NewVoter(append(tuner.TunedExits(), adapt.FinalHead(compressed)), cfg.VoteMode)
	l.m["adapt.calibrate_ms"] = timeMedian(1, func() { voter.Calibrate(compressed, in.voteIn, in.voteTargets, 0.5) })
	l.m["adapt.vote_forward_ms"] = timeMedian(5, func() { ag.ReleaseTape(voter.Logits(compressed, inputs)) })

	st := ag.ActivePool().Stats()
	l.m["tensor.pool_hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
	ag.SetPool(nil)
	return nil
}

// serveObs is what one rung of the serving side observed: the load
// generator's samples and wall time, and the program's own counters.
type serveObs struct {
	samples []sample
	wall    time.Duration
	snap    obsv.Summary
	allocs  uint64
}

func (o serveObs) tokS() float64 { return float64(tokensOut(o.samples)) / o.wall.Seconds() }

// steps and fed are the scheduler's StepBatch calls and the tokens they
// consumed, from the program's decode.step_ms and decode.tokens series.
func (o serveObs) steps() float64 { return float64(o.snap.Dists["decode.step_ms"].Count) }
func (o serveObs) fed() float64   { return float64(o.snap.Counters["decode.tokens"]) }

// sender drives one list of requests per client through some stack.
type sender func(reqs [][]request, tr *tracer, parent int) ([]sample, time.Duration)

// observe sends reqs with a program recorder installed; the program's own
// spans go to progTrace when it is non-nil.
func observe(send sender, reqs [][]request, tr *tracer, parent int, progTrace *bytes.Buffer) (serveObs, error) {
	var o serveObs
	before, _ := mallocs()
	snap, err := withRecorder(progTrace, func() { o.samples, o.wall = send(reqs, tr, parent) })
	after, _ := mallocs()
	o.snap, o.allocs = snap, after-before
	return o, err
}

// schedRung sends r's request list to a bare serve.Scheduler with the same
// weights, adapters and concurrency as the workload, but no HTTP: each
// client submits a request, waits for it, and submits the next. A batch
// workload already is this rung.
func (l *ladder) schedRung(r *serveRun, reqs [][]request) (serveObs, error) {
	id := l.tr.begin("ladder.sched", l.root, "")
	defer l.tr.end(id)
	w := r.w
	w.kind = kindBatch
	f, err := newFixture(w, "")
	if err != nil {
		return serveObs{}, err
	}
	send := func(reqs [][]request, tr *tracer, parent int) ([]sample, time.Duration) {
		if r.w.kind == kindBatch {
			return f.runBatch(reqs[0], nil, tr, parent)
		}
		return f.runClosedLoop(reqs, r.adapters, tr, parent)
	}
	send(r.warm, nil, 0)
	o, err := observe(send, reqs, l.tr, id, nil)
	if _, cerr := f.close(); err == nil {
		err = cerr
	}
	return o, err
}

// serveMetrics turns the scheduler rung and the HTTP rung into the serve.*
// metrics. occupancy picks which nn.decode_step_ms the scheduler's step is
// compared with.
func (l *ladder) serveMetrics(v spec, sched, top serveObs, drain time.Duration) {
	l.m["serve.sched_tok_s"] = sched.tokS()
	l.m["serve.http_self_share"] = 1 - top.tokS()/sched.tokS()
	l.m["serve.sched_self_ms_per_step"] = ms(sched.wall)/sched.steps() - l.m[stepMetric(v, sched.fed()/sched.steps())]
	l.m["serve.steps"] = top.steps()
	l.m["serve.batch_occupancy"] = top.fed() / top.steps()
	l.m["serve.prompt_token_share"] = float64(len(top.samples)*v.promptLen) / top.fed()
	var queue, minusServer []float64
	shed := 0
	for _, s := range top.samples {
		if s.nonOK {
			shed++
		}
		if s.failure == "" {
			queue = append(queue, s.queueMS)
			minusServer = append(minusServer, s.totalMS-s.serverMS)
		}
	}
	l.m["serve.queue_wait_ms_p50"] = median(queue)
	l.m["serve.client_minus_server_ms_p50"] = median(minusServer)
	l.m["serve.adapter_swaps"] = float64(top.snap.Counters["serve.adapter_swaps"])
	l.m["serve.adapter_loads"] = float64(top.snap.Counters["serve.adapter_loads"])
	l.m["serve.shed"] = float64(shed)
	l.m["serve.allocs_per_token"] = float64(top.allocs) / float64(tokensOut(top.samples))
	l.m["serve.drain_ms"] = ms(drain)
}

// stepMetric names the bare decode step measured nearest to an occupancy.
func stepMetric(v spec, occupancy float64) string {
	b := 8
	switch {
	case occupancy < 1.5:
		b = 1
	case occupancy < 5:
		b = 2
	}
	variant := "f32"
	if v.packed {
		variant = "p4"
	}
	return fmt.Sprintf("nn.decode_step_ms.%s.b%d", variant, b)
}

// clientMetrics reports the load generator's own view, as timed on the wall
// clock (the end-to-end metrics are at the reference clock): the medians
// and the highest percentile the samples support (and which one, over how
// many samples). They are reported, not gated: on a shared box the wall
// clock moves 20-30% with the host's clock level, and tails by 10-20% more.
func (l *ladder) clientMetrics(ttft, gaps, total []float64) {
	l.m["client.ttft_ms_p50_wall"], l.m["client.itl_ms_p50_wall"] = median(ttft), median(gaps)
	p, v := tail(ttft)
	l.m["client.ttft_ms_tail"], l.m["client.ttft_tail_pct"], l.m["client.ttft_samples"] = v, p, float64(len(ttft))
	p, v = tail(gaps)
	l.m["client.itl_ms_tail"], l.m["client.itl_tail_pct"], l.m["client.itl_samples"] = v, p, float64(len(gaps))
	l.m["client.req_ms_p50"] = median(total)
}

// predict prints, from the layer numbers alone, what the end-to-end
// latencies should be beside what the load generator measured.
func (l *ladder) predict(w io.Writer, v spec, top serveObs) {
	step := l.m[stepMetric(v, l.m["serve.batch_occupancy"])]
	self := l.m["serve.sched_self_ms_per_step"]
	ttft, gaps, _ := latencies(top.samples)
	line := func(name string, predicted, measured float64) {
		fmt.Fprintf(w, "predicted %-12s %10.3f  measured %10.3f  (%+.0f%%)\n", name, predicted, measured, 100*(predicted/measured-1))
	}
	line("ttft_ms_p50", l.m["serve.queue_wait_ms_p50"]+float64(v.promptLen)*(step+self), median(ttft))
	line("itl_ms_p50", step+self, median(gaps))
	// Of the promptLen+outTokens-1 tokens a request feeds, outTokens steps
	// sample an output token.
	outShare := float64(v.outTokens) / float64(v.promptLen+v.outTokens-1)
	line("tok_s", l.m["serve.batch_occupancy"]/(step+self)*1e3*outShare, top.tokS())
}
