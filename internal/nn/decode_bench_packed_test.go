package nn

import (
	"sync"
	"testing"

	"edgellm/internal/tensor"
)

// The packed decode benchmarks need their own model instance: PackModel
// severs the float32 block weights, so sharing decodeBenchModel would
// break the float32 benchmarks. Built and packed once at uniform 4 bits —
// the LUC grid's workhorse width.
var (
	packedBenchOnce  sync.Once
	packedBenchCache *Model
	packedBenchPM    *PackedModel
)

func packedBenchModel(b *testing.B) (*Model, *PackedModel) {
	packedBenchOnce.Do(func() {
		cfg := Config{Vocab: 2048, Dim: 256, Heads: 8, Layers: 4, Hidden: 768, MaxSeq: 128}
		packedBenchCache = NewModel(cfg, tensor.NewRNG(7))
		specs := make([]PackSpec, cfg.Layers)
		for i := range specs {
			specs[i] = PackSpec{Bits: 4}
		}
		pm, err := PackModel(packedBenchCache, specs, nil)
		if err != nil {
			panic(err)
		}
		packedBenchPM = pm
	})
	return packedBenchCache, packedBenchPM
}

// BenchmarkDecodeStepPacked4 is BenchmarkDecodeStep with the block matmuls
// routed through the fused 4-bit kernels — the packed weights are the only
// resident copy. Gated on 0 allocs/op (the tile-decode scratch is reused)
// and a conservative tok/s floor; wbytes reports the packed resident bytes
// benchguard holds as a ceiling.
func BenchmarkDecodeStepPacked4(b *testing.B) {
	m, pm := packedBenchModel(b)
	d := NewBatchDecoder(m, 1, tensor.NewPool())
	defer d.Close()
	if err := d.SetPacked(pm); err != nil {
		b.Fatal(err)
	}
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
	b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
}

// BenchmarkDecodeBatch8Packed4 is BenchmarkDecodeBatch8 under packed
// execution: eight sequences per step, one StepBatch per op.
func BenchmarkDecodeBatch8Packed4(b *testing.B) {
	const B8 = 8
	m, pm := packedBenchModel(b)
	d := NewBatchDecoder(m, B8, tensor.NewPool())
	defer d.Close()
	if err := d.SetPacked(pm); err != nil {
		b.Fatal(err)
	}
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
	b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
}

// BenchmarkDecodePrefill64Packed4 is BenchmarkDecodePrefill64 under packed
// execution: each weight tile is bit-extracted once per 16 prompt rows.
func BenchmarkDecodePrefill64Packed4(b *testing.B) {
	m, pm := packedBenchModel(b)
	d := NewBatchDecoder(m, 1, tensor.NewPool())
	defer d.Close()
	if err := d.SetPacked(pm); err != nil {
		b.Fatal(err)
	}
	benchPrefill64(b, d)
	b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
}
