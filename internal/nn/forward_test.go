package nn

import (
	"math"
	"strings"
	"testing"

	ag "edgellm/internal/autograd"
	"edgellm/internal/tensor"
)

// forwardCfg is the model the no-grad forward is held to the autograd one
// on: head dim 12 and a 37-token vocabulary put ragged widths under every
// kernel, and MaxSeq 32 lets T reach whole and partial groups of eight.
func forwardCfg(tied bool) Config {
	return Config{Vocab: 37, Dim: 24, Heads: 2, Layers: 3, Hidden: 40, MaxSeq: 32, ExitHeads: true, TieExitHeads: tied}
}

// forwardSeqLens are the sequence lengths the identity is checked at: one
// position, just under, at and just past a group of eight, and MaxSeq.
var forwardSeqLens = []int{1, 7, 8, 31, 32}

// poisonForward fills every scratch buffer of f with NaN, so a read of a
// buffer before the forward wrote it shows up in its results. One pass over
// batch first sizes the buffers.
func poisonForward(f *Forward, batch [][]int) {
	f.Embed(batch)
	f.RunTo(len(f.m.Blocks))
	f.Head(len(f.m.Blocks))
	nan := float32(math.NaN())
	for _, buf := range [][]float32{f.x.data, f.h.data, f.q.data, f.k.data, f.v.data, f.ctx.data, f.att.data,
		f.gate.data, f.up.data, f.logits.data, f.kT, f.sc, f.inv} {
		for i := range buf {
			buf[i] = nan
		}
	}
}

// specialBlockInput is a (rows, dim) block input drawn from g with every
// seventh element replaced by +0, −0, a denormal or NaN in turn when
// specials is set.
func specialBlockInput(g *tensor.RNG, rows, dim int, specials bool) *tensor.Tensor {
	x := g.Normal(0, 1, rows, dim)
	if specials {
		vals := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(3), float32(math.NaN())}
		for j := g.Intn(7); j < len(x.Data); j += 7 {
			x.Data[j] = vals[j%len(vals)]
		}
	}
	return x
}

func bitsMatch(t *testing.T, what string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, autograd %v", what, got.Shape, want.Shape)
	}
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s[%d]: %v (%#x), autograd %v (%#x)", what, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// checkForward runs one batch from block from (token ids when x is nil,
// else x as block from's input) to the top of m on a poisoned Forward and
// holds every hidden state and every head past from — each exit, then the
// final head — to the autograd forward's bits.
func checkForward(t *testing.T, m *Model, batch [][]int, x *tensor.Tensor, from int) {
	t.Helper()
	b, T := len(batch), len(batch[0])
	f := NewForward(m)
	poisonForward(f, batch)
	var ref *ag.Value
	if x == nil {
		f.Embed(batch)
		ref = m.Embed(batch)
	} else {
		f.Load(x, from, b, T)
		ref = ag.Const(x.Clone())
	}
	L := len(m.Blocks)
	for to := from; to <= L; to++ {
		if to > from {
			ref = m.Blocks[to-1].Forward(ref, b, T)
		}
		bitsMatch(t, "hidden", f.RunTo(to), ref.Data)
		if to > 0 && to > from {
			bitsMatch(t, "exit logits", f.Head(to-1), m.Exits[to-1].Forward(ref).Data)
		}
	}
	bitsMatch(t, "final logits", f.Head(L), m.LMHead.Forward(m.Norm.Forward(ref)).Data)
}

// forwardBatch draws b sequences of T token ids.
func forwardBatch(g *tensor.RNG, vocab, b, T int) [][]int {
	batch := make([][]int, b)
	for i := range batch {
		batch[i] = make([]int, T)
		for j := range batch[i] {
			batch[i][j] = g.Intn(vocab)
		}
	}
	return batch
}

// TestForwardMatchesAutograd holds the no-grad forward to the autograd
// forward bit for bit over B = 1..4, every T of forwardSeqLens, from token
// ids and from every block's input (with ±0, denormal and NaN elements),
// with tied and untied exits, on scratch poisoned with NaN.
func TestForwardMatchesAutograd(t *testing.T) {
	for _, tied := range []bool{false, true} {
		cfg := forwardCfg(tied)
		m := NewModel(cfg, tensor.NewRNG(41))
		g := tensor.NewRNG(42)
		for b := 1; b <= 4; b++ {
			for _, T := range forwardSeqLens {
				batch := forwardBatch(g, cfg.Vocab, b, T)
				checkForward(t, m, batch, nil, 0)
				for from := 0; from <= cfg.Layers; from++ {
					checkForward(t, m, batch, specialBlockInput(g, b*T, cfg.Dim, true), from)
				}
			}
		}
	}
}

// FuzzForwardMatchesAutograd is TestForwardMatchesAutograd's identity over
// fuzzed weights, batch shape, starting block, tying and input specials.
func FuzzForwardMatchesAutograd(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), uint8(0), false, false)
	f.Add(int64(2), uint8(3), uint8(4), uint8(1), true, true)
	f.Add(int64(3), uint8(1), uint8(2), uint8(3), false, true)
	f.Fuzz(func(t *testing.T, seed int64, bSel, tSel, fromSel uint8, tied, specials bool) {
		cfg := forwardCfg(tied)
		m := NewModel(cfg, tensor.NewRNG(seed))
		g := tensor.NewRNG(seed + 1)
		b := 1 + int(bSel)%4
		T := forwardSeqLens[int(tSel)%len(forwardSeqLens)]
		from := int(fromSel) % (cfg.Layers + 2) // Layers+1 starts from token ids
		batch := forwardBatch(g, cfg.Vocab, b, T)
		if from > cfg.Layers {
			checkForward(t, m, batch, nil, 0)
			return
		}
		checkForward(t, m, batch, specialBlockInput(g, b*T, cfg.Dim, specials), from)
	})
}

// TestForwardAllocatesNothing pins the steady state: once a Forward has
// run a batch shape, a whole pass — embed, every block, every exit and the
// final head — allocates nothing.
func TestForwardAllocatesNothing(t *testing.T) {
	cfg := forwardCfg(false)
	m := NewModel(cfg, tensor.NewRNG(5))
	batch := forwardBatch(tensor.NewRNG(6), cfg.Vocab, 4, 32)
	f := NewForward(m)
	pass := func() {
		f.Embed(batch)
		for d := 1; d <= cfg.Layers; d++ {
			f.RunTo(d)
			f.Head(d - 1)
		}
		f.Head(cfg.Layers)
	}
	pass()
	if n := testing.AllocsPerRun(10, pass); n != 0 {
		t.Fatalf("no-grad forward allocated %v times a pass", n)
	}
}

// TestForwardRefusesAdapterHooks: a LoRA-style hook has no no-grad form, so
// the forward must refuse the model rather than run it without the hook.
func TestForwardRefusesAdapterHooks(t *testing.T) {
	m := NewModel(forwardCfg(false), tensor.NewRNG(7))
	m.Blocks[1].MLP.Up.Adapter = func(x, y *ag.Value) *ag.Value { return y }
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "Adapter") {
			t.Fatalf("Embed on a hooked model: recovered %v, want an Adapter panic", r)
		}
	}()
	NewForward(m).Embed([][]int{{1, 2}})
}

// BenchmarkForward times one no-grad pass at the tuning workload's shape
// (bench/workloads.go: d128, 6 layers, 384 hidden, 256 vocab, 4 × 32
// tokens) through every block and the final head, after a first pass has
// sized the scratch. BENCH_baseline.json gates its 0 B/op and 0 allocs/op.
func BenchmarkForward(b *testing.B) {
	cfg := Config{Vocab: 256, Dim: 128, Heads: 4, Layers: 6, Hidden: 384, MaxSeq: 32, ExitHeads: true}
	m := NewModel(cfg, tensor.NewRNG(1))
	batch := forwardBatch(tensor.NewRNG(2), cfg.Vocab, 4, 32)
	f := NewForward(m)
	f.Logits(batch) // sizes the scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Logits(batch)
	}
}
