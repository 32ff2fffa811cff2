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
		if d.arena.Len(s) >= m.Cfg.MaxSeq {
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
func BenchmarkDecodeBatch8(b *testing.B) { benchDecodeBatch(b, decodeBenchModel(), nil, 8) }

// BenchmarkDecodeBatch2 is BenchmarkDecodeBatch8 at two sequences, the
// slot count of the HTTP workloads: one op = one StepBatch = two tokens.
func BenchmarkDecodeBatch2(b *testing.B) { benchDecodeBatch(b, decodeBenchModel(), nil, 2) }

// benchDecodeBatch advances batch sequences per step through one batched
// decoder, under pm's packed weights when pm is not nil: one op = one
// StepBatch = batch tokens. It reports tok/s, and wbytes, the packed
// resident bytes, under pm.
func benchDecodeBatch(b *testing.B, m *Model, pm *PackedModel, batch int) {
	d := NewBatchDecoder(m, batch, tensor.NewPool())
	defer d.Close()
	if pm != nil {
		if err := d.SetPacked(pm); err != nil {
			b.Fatal(err)
		}
	}
	tokens := make([]int, batch)
	slots := make([]int, batch)
	acquireAll := func() {
		for i := 0; i < batch; i++ {
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
		if d.arena.Len(slots[0]) >= m.Cfg.MaxSeq {
			d.Reset()
			acquireAll()
		}
		for j := range tokens {
			tokens[j] = (i*batch + j*7) & 1023
		}
		if _, err := d.StepBatch(tokens, slots); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*batch)/b.Elapsed().Seconds(), "tok/s")
	if pm != nil {
		b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
	}
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
			if d.arena.Len(0) >= m.Cfg.MaxSeq {
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

// BenchmarkAttendStep512 is one decode step of 32 rows at position 511 of
// fullCacheDecoder's model: attention at the fan-out threshold, small
// weights. CI's bench-kernels job reports it at 1 and 4 procs, report-only.
func BenchmarkAttendStep512(b *testing.B) {
	d, slots := fullCacheDecoder(32)
	defer d.Close()
	tokens := make([]int, len(slots))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range slots {
			d.arena.lens[s] = d.m.Cfg.MaxSeq - 1
		}
		if _, err := d.StepBatch(tokens, slots); err != nil {
			b.Fatal(err)
		}
	}
}
