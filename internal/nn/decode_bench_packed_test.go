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
		packedBenchPM = pack4(b, packedBenchCache)
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
	b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
}

// BenchmarkDecodeBatch8Packed4 is BenchmarkDecodeBatch8 under packed
// execution: eight sequences per step, one StepBatch per op.
func BenchmarkDecodeBatch8Packed4(b *testing.B) {
	m, pm := packedBenchModel(b)
	benchDecodeBatch(b, m, pm, 8)
}

// BenchmarkDecodeBatch2Packed4 is BenchmarkDecodeBatch2 under packed
// execution: two sequences per step, each code word decoded once for both.
func BenchmarkDecodeBatch2Packed4(b *testing.B) {
	m, pm := packedBenchModel(b)
	benchDecodeBatch(b, m, pm, 2)
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
	benchPrefill(b, d, 64)
	b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
}
