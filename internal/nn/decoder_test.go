package nn

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	ag "edgellm/internal/autograd"
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

func rowsBitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", name, j, got[j], want[j])
		}
	}
}

// tuneWindowCfg is the model the tune_window benchmark workload tunes.
func tuneWindowCfg() Config {
	return Config{Vocab: 256, Dim: 128, Heads: 4, Layers: 6, Hidden: 384, MaxSeq: 32, ExitHeads: true}
}

// referenceLogits is the decode oracle: Model.Logits over the whole of
// tokens, on ref under adapter a (nil: the base model) installed for the
// call as Linear.Adapter hooks, y + (alpha/rank)·((x·A)·B) — the LoRA
// formula adapt.InstallLoRA trains.
func referenceLogits(ref *Model, a *Adapter, tokens []int) *tensor.Tensor {
	if a != nil {
		scale := a.alpha / float32(a.rank)
		for _, p := range a.pairs {
			_, l, wi, err := ref.adapterSite(p.Target)
			if err != nil {
				panic(err)
			}
			lin := ref.LMHead
			if l < len(ref.Blocks) {
				b := ref.Blocks[l]
				lin = []*Linear{b.Attn.Wq, b.Attn.Wk, b.Attn.Wv, b.Attn.Wo, b.MLP.Gate, b.MLP.Up, b.MLP.Down}[wi]
			}
			A, B := ag.Const(p.A), ag.Const(p.B)
			lin.Adapter = func(x, y *ag.Value) *ag.Value {
				return ag.Add(y, ag.Scale(ag.MatMul(ag.MatMul(x, A), B), scale))
			}
			defer func() { lin.Adapter = nil }()
		}
	}
	return ref.Logits([][]int{tokens}).Data
}

// TestDecoderMatchesFullForward: stepping a full-MaxSeq sequence through the
// KV cache gives, at every position, the bits of referenceLogits over the
// whole sequence — on float32 and packed-4 weights, each with no adapter and
// with a full adapter, over the tiny model, the runs harness's model, the
// hd12 model whose head dimension is not a multiple of 8, and the
// tune_window model.
func TestDecoderMatchesFullForward(t *testing.T) {
	const seed = 70
	for name, cfg := range map[string]Config{
		"tiny":        tinyConfig(),
		"runs":        runsTestCfg(),
		"hd12":        {Vocab: 96, Dim: 96, Heads: 8, Layers: 2, Hidden: 192, MaxSeq: 44},
		"tune_window": tuneWindowCfg(),
	} {
		seq := make([]int, cfg.MaxSeq)
		for i := range seq {
			seq[i] = (7*i + 3) % cfg.Vocab
		}
		adapter := fullAdapter(t, "oracle", 71, cfg, 4)
		for _, packed := range []bool{false, true} {
			m := NewModel(cfg, tensor.NewRNG(seed))
			ref, weights := m, "float32"
			var pm *PackedModel
			if packed {
				pm = pack4(t, m)
				ref, weights = packedRefModel(cfg, seed, pm), "packed4"
			}
			for _, a := range []*Adapter{nil, adapter} {
				want := referenceLogits(ref, a, seq)
				d := NewDecoder(m)
				if err := d.SetPacked(pm); err != nil {
					t.Fatal(err)
				}
				if err := d.SetAdapter(a); err != nil {
					t.Fatal(err)
				}
				for pos, tok := range seq {
					rowsBitsEqual(t, fmt.Sprintf("%s %s adapter %v pos %d", name, weights, a != nil, pos), mustStep(t, d, tok), want.Row(pos))
				}
				d.Close()
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
	if d.arena.Len(0) != 1 {
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
	if d.arena.Len(0) != m.Cfg.MaxSeq {
		t.Fatalf("rejected step moved Pos to %d", d.arena.Len(0))
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
	if d.arena.Len(0) != 1 {
		t.Fatalf("Pos after rejected steps = %d, want 1", d.arena.Len(0))
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
	if len(rows) != 2 || d.arena.Len(0) != 1 || d.arena.Len(1) != 1 {
		t.Fatalf("valid batch after rejections: rows=%d pos=%d,%d", len(rows), d.arena.Len(0), d.arena.Len(1))
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
	if d.arena.Len(1) != 1 {
		t.Fatalf("rejected batch advanced slot 1 to %d", d.arena.Len(1))
	}
}

// TestDecoderBatchMatchesIndependentDecoders decodes four sequences through
// one batched decoder — with streams joining and leaving mid-run — and
// asserts every logit row is bitwise identical to four independent
// single-sequence decoders.
func TestDecoderBatchMatchesIndependentDecoders(t *testing.T) {
	m := tinyModel(81)
	pool := tensor.NewPool()
	batch := NewBatchDecoder(m, 4, pool)
	defer batch.Close()

	seqs := [][]int{
		{1, 2, 3, 4, 5, 6},
		{9, 8, 7, 6, 5},
		{2, 4, 6, 8},
		{11, 12, 13, 14, 15, 16, 1},
	}
	// joinAt staggers admissions so batch membership churns mid-run;
	// sequence i joins at global step i.
	solo := make([]*Decoder, len(seqs))
	for i := range seqs {
		solo[i] = NewDecoder(m)
		defer solo[i].Close()
	}
	slotOf := make([]int, len(seqs))
	fed := make([]int, len(seqs))
	for i := range slotOf {
		slotOf[i] = -1
	}
	for step := 0; ; step++ {
		var tokens, slots []int
		var streams []int
		for i, seq := range seqs {
			if step >= i && fed[i] < len(seq) {
				if slotOf[i] == -1 {
					s, err := batch.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					slotOf[i] = s
				}
				tokens = append(tokens, seq[fed[i]])
				slots = append(slots, slotOf[i])
				streams = append(streams, i)
			}
		}
		if len(tokens) == 0 {
			break
		}
		rows, err := batch.StepBatch(tokens, slots)
		if err != nil {
			t.Fatal(err)
		}
		for bi, i := range streams {
			want := mustStep(t, solo[i], seqs[i][fed[i]])
			rowsBitsEqual(t, "batched stream", rows[bi], want)
			fed[i]++
			if fed[i] == len(seqs[i]) {
				batch.Release(slotOf[i]) // leave mid-run; slot is reusable
				slotOf[i] = -1
			}
		}
	}
	if batch.arena.InUse() != 0 || batch.ArenaActiveBytes() != 0 {
		t.Fatalf("all streams left but %d slots / %d bytes active",
			batch.arena.InUse(), batch.ArenaActiveBytes())
	}
}

// TestDecoderMixedAdapterSlotsMatchSolo: one StepBatch carries slots bound to
// the base model, to adapter A (every block linear and the LM head) and to
// adapter B (two block linears, no LM head), with A in two stretches that do
// not sit together, and opens with prompt runs of different lengths. Every
// run's logits equal its stream's token-at-a-time solo decode under the same
// adapter bit for bit, in float32 and packed-4. The slots are released and
// re-acquired twice, each time under another binding, nil included, and
// still decode exactly as a fresh solo decoder: no old binding leaks.
func TestDecoderMixedAdapterSlotsMatchSolo(t *testing.T) {
	cfg := Config{Vocab: 96, Dim: 64, Heads: 4, Layers: 2, Hidden: 128, MaxSeq: 24}
	adA := fullAdapter(t, "A", 91, cfg, 3)
	g := tensor.NewRNG(92)
	adB, err := NewAdapter("B", 4, []AdapterPair{
		{Target: "block0.wv", A: g.Normal(0, 0.1, cfg.Dim, 2), B: g.Normal(0, 0.1, 2, cfg.Dim)},
		{Target: "block1.down", A: g.Normal(0, 0.1, cfg.Hidden, 2), B: g.Normal(0, 0.1, 2, cfg.Dim)},
	})
	if err != nil {
		t.Fatal(err)
	}
	rounds := [][]*Adapter{{nil, adA, adB, adA}, {adA, adB, nil, adB}, {adB, nil, adA, nil}}
	for _, packed := range []bool{false, true} {
		m := NewModel(cfg, tensor.NewRNG(93))
		var pm *PackedModel
		if packed {
			pm = pack4(t, m)
		}
		d := NewBatchDecoder(m, len(rounds[0]), tensor.NewPool())
		if err := d.SetPacked(pm); err != nil {
			t.Fatal(err)
		}
		for ri, round := range rounds {
			slots, solos, seqs, fed := make([]int, len(round)), make([]*Decoder, len(round)), make([][]int, len(round)), make([]int, len(round))
			for i, a := range round {
				if slots[i], err = d.Acquire(); err != nil {
					t.Fatal(err)
				}
				if err := d.SetAdapterAt(slots[i], a); err != nil {
					t.Fatal(err)
				}
				solos[i] = NewDecoder(m)
				defer solos[i].Close()
				if err := solos[i].SetPacked(pm); err != nil {
					t.Fatal(err)
				}
				if err := solos[i].SetAdapter(a); err != nil {
					t.Fatal(err)
				}
				seqs[i] = make([]int, 6+2*i)
				for j := range seqs[i] {
					seqs[i][j] = (11*j + 5*i + 7*ri) % cfg.Vocab
				}
			}
			for step := 0; ; step++ {
				var tokens, stepSlots, streams, runs []int
				for i, seq := range seqs {
					run := 1
					if step == 0 {
						run = 1 + i // prompt runs of 1 to 4 tokens
					}
					if run = min(run, len(seq)-fed[i]); run == 0 {
						continue
					}
					tokens = append(tokens, seq[fed[i]:fed[i]+run]...)
					for range run {
						stepSlots = append(stepSlots, slots[i])
					}
					streams, runs = append(streams, i), append(runs, run)
				}
				if len(tokens) == 0 {
					break
				}
				rows, err := d.StepBatch(tokens, stepSlots)
				if err != nil {
					t.Fatal(err)
				}
				for r, i := range streams {
					var want []float32
					for range runs[r] {
						want = mustStep(t, solos[i], seqs[i][fed[i]])
						fed[i]++
					}
					rowsBitsEqual(t, fmt.Sprintf("packed %v round %d stream %d step %d", packed, ri, i, step), rows[r], want)
				}
			}
			for _, s := range slots {
				d.Release(s)
			}
		}
		d.Close()
	}
}

// TestDecoderDeterminismAcrossGOMAXPROCS runs a batched decode serially and
// at high parallelism and requires bitwise-identical logits. The model is
// sized so both the slot fan-out and the banded matmul kernels cross their
// parallel thresholds.
func TestDecoderDeterminismAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{Vocab: 128, Dim: 64, Heads: 4, Layers: 2, Hidden: 96, MaxSeq: 64}
	m := NewModel(cfg, tensor.NewRNG(82))
	const B, steps = 8, 24

	decode := func() []float32 {
		pool := tensor.NewPool()
		d := NewBatchDecoder(m, B, pool)
		defer d.Close()
		tokens := make([]int, B)
		slots := make([]int, B)
		for i := 0; i < B; i++ {
			s, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			slots[i] = s
		}
		var out []float32
		for st := 0; st < steps; st++ {
			for i := range tokens {
				tokens[i] = (st*B + i*7) % cfg.Vocab
			}
			rows, err := d.StepBatch(tokens, slots)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				out = append(out, row...)
			}
		}
		return out
	}

	old := runtime.GOMAXPROCS(1)
	serial := decode()
	workers := runtime.NumCPU()
	if workers < 8 {
		workers = 8 // force multiple chunks even on small CI machines
	}
	runtime.GOMAXPROCS(workers)
	parallel := decode()
	runtime.GOMAXPROCS(old)

	rowsBitsEqual(t, "GOMAXPROCS 1 vs N", parallel, serial)
}

// TestDecoderPoolBalance verifies every pooled byte comes back: arena plus
// scratch released on Close after join/leave churn and Reset, and a second
// decoder construction is served from the recycled buffers.
func TestDecoderPoolBalance(t *testing.T) {
	m := tinyModel(83)
	pool := tensor.NewPool()

	run := func() {
		d := NewBatchDecoder(m, 3, pool)
		for round := 0; round < 3; round++ {
			s, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := d.StepBatch([]int{i}, []int{s}); err != nil {
					t.Fatal(err)
				}
			}
			d.Release(s)
		}
		d.Reset()
		d.Close()
	}

	run()
	if st := pool.Stats(); st.BytesInUse != 0 {
		t.Fatalf("pool bytes in use after Close = %d, want 0", st.BytesInUse)
	}
	missesAfterFirst := pool.Stats().Misses
	run()
	st := pool.Stats()
	if st.BytesInUse != 0 {
		t.Fatalf("pool bytes in use after second Close = %d, want 0", st.BytesInUse)
	}
	if st.Misses != missesAfterFirst {
		t.Fatalf("second decoder allocated fresh buffers: misses %d → %d",
			missesAfterFirst, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("second decoder never hit the pool")
	}
}

// decodeStepAllocPin bounds steady-state allocations per StepBatch call on
// the serial path. The decode hot loop reuses arena rows, pooled scratch,
// and the returned row slice, so it allocates nothing once warm.
const decodeStepAllocPin = 0

func TestDecoderSteadyStateAllocs(t *testing.T) {
	m := tinyModel(84)
	pool := tensor.NewPool()
	d := NewBatchDecoder(m, 2, pool)
	defer d.Close()
	s0, _ := d.Acquire()
	s1, _ := d.Acquire()
	tokens := []int{1, 2}
	slots := []int{s0, s1}
	step := func() {
		if d.arena.Len(s0) >= m.Cfg.MaxSeq {
			d.Reset()
			d.arena.Acquire()
			d.arena.Acquire()
		}
		if _, err := d.StepBatch(tokens, slots); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []*Adapter{nil, fullAdapter(t, "allocs", 3, m.Cfg, 2)} {
		if err := d.SetAdapter(a); err != nil {
			t.Fatal(err)
		}
		step() // warm
		allocs := testing.AllocsPerRun(5, step)
		if allocs > decodeStepAllocPin {
			t.Fatalf("adapter %v: steady-state StepBatch allocates %.1f per call, pin is %d", a != nil, allocs, decodeStepAllocPin)
		}
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
