package nn

import (
	"sync"
	"testing"

	"edgellm/internal/tensor"
)

// The decode benchmark model is sized so per-token weight traffic (~18MB
// of float32 parameters) far exceeds cache: batched decoding then wins by
// streaming each weight matrix once per step instead of once per sequence,
// which is the effect the batch-vs-serial CI gate pins. Built once — model
// construction dominates a -benchtime=1x smoke run otherwise.
var (
	decodeBenchOnce  sync.Once
	decodeBenchCache *Model
)

func decodeBenchModel() *Model {
	decodeBenchOnce.Do(func() {
		cfg := Config{Vocab: 2048, Dim: 256, Heads: 8, Layers: 4, Hidden: 768, MaxSeq: 128}
		decodeBenchCache = NewModel(cfg, tensor.NewRNG(7))
	})
	return decodeBenchCache
}

// BenchmarkDecodeStep is single-sequence steady-state decoding. Gated on
// allocs/op (must stay 0: the arena and pooled scratch make the hot loop
// allocation-free) and on a conservative tok/s floor.
func BenchmarkDecodeStep(b *testing.B) {
	m := decodeBenchModel()
	d := NewBatchDecoder(m, 1, tensor.NewPool())
	defer d.Close()
	s, err := d.Acquire()
	if err != nil {
		b.Fatal(err)
	}
	tokens, slots := []int{1}, []int{s}
	if _, err := d.StepBatch(tokens, slots); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.PosAt(s) >= m.Cfg.MaxSeq {
			d.Reset()
			if s, err = d.Acquire(); err != nil {
				b.Fatal(err)
			}
			slots[0] = s
		}
		tokens[0] = i & 1023
		if _, err := d.StepBatch(tokens, slots); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkDecodeBatch8 advances eight sequences per step through one
// batched decoder: one op = one StepBatch = eight tokens.
func BenchmarkDecodeBatch8(b *testing.B) {
	const B8 = 8
	m := decodeBenchModel()
	d := NewBatchDecoder(m, B8, tensor.NewPool())
	defer d.Close()
	tokens := make([]int, B8)
	slots := make([]int, B8)
	acquireAll := func() {
		for i := 0; i < B8; i++ {
			s, err := d.Acquire()
			if err != nil {
				b.Fatal(err)
			}
			slots[i] = s
		}
	}
	acquireAll()
	if _, err := d.StepBatch(tokens, slots); err != nil { // warm scratch
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d.PosAt(slots[0]) >= m.Cfg.MaxSeq {
			d.Reset()
			acquireAll()
		}
		for j := range tokens {
			tokens[j] = (i*B8 + j*7) & 1023
		}
		if _, err := d.StepBatch(tokens, slots); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*B8)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkDecodeOneAtATime8 is the serial counterpart of DecodeBatch8:
// eight independent single-slot decoders each stepped once per op, so one
// op is again eight tokens. The ns/op ratio of the pair is the batch
// speedup benchguard gates (≥1.7× at any core count): batching reads each
// weight matrix once per step instead of eight times.
func BenchmarkDecodeOneAtATime8(b *testing.B) {
	const B8 = 8
	m := decodeBenchModel()
	decs := make([]*Decoder, B8)
	for i := range decs {
		decs[i] = NewBatchDecoder(m, 1, tensor.NewPool())
		defer decs[i].Close()
		if _, err := decs[i].Step(1); err != nil { // acquires slot 0, warms scratch
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, d := range decs {
			if d.Pos() >= m.Cfg.MaxSeq {
				d.Reset()
			}
			if _, err := d.Step((i*B8 + j*7) & 1023); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*B8)/b.Elapsed().Seconds(), "tok/s")
}

// BenchmarkDecodePrefill64 feeds a 64-token prompt into a fresh slot, in
// runs of PrefillRows: one op = one prompt = 64 tokens, tok/s counts prompt
// tokens. Gated on 0 allocs/op and a tok/s floor.
func BenchmarkDecodePrefill64(b *testing.B) {
	d := NewBatchDecoder(decodeBenchModel(), 1, tensor.NewPool())
	defer d.Close()
	benchPrefill64(b, d)
}

func benchPrefill64(b *testing.B, d *Decoder) {
	const prompt = 64
	tokens := make([]int, prompt)
	slots := make([]int, prompt) // slot 0: the only one, so always the one Acquire returns
	feed := func(i int) {
		d.Reset()
		if _, err := d.Acquire(); err != nil {
			b.Fatal(err)
		}
		for j := range tokens {
			tokens[j] = (i*prompt + j*7) & 1023
		}
		for lo := 0; lo < prompt; lo += PrefillRows {
			if _, err := d.StepBatch(tokens[lo:lo+PrefillRows], slots[lo:lo+PrefillRows]); err != nil {
				b.Fatal(err)
			}
		}
	}
	feed(0) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*prompt)/b.Elapsed().Seconds(), "tok/s")
}
