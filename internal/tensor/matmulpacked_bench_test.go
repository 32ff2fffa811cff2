package tensor_test

import (
	"fmt"
	"testing"

	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// The packed-kernel benchmarks use the single-token decode shape — one
// activation row against a 768×768 weight (m·k·n far below the parallel
// threshold) — so the serial kernels are measured, allocs/op is a
// hard 0 gate, and the 2.25MB unpacked weight exceeds L2 where the packed
// codes (150–590KB) do not. MB/s counts the bytes a call streams: the
// weight in the form the kernel reads it plus the activations in and out,
// so it sits beside bench's tensor.memcpy_gbps. Each fused benchmark also
// reports the packed weight's resident bytes as the custom wbytes metric,
// which benchguard gates as a ceiling — the bit budget must keep buying the
// bytes it claims.
const (
	pbM = 1
	pbK = 768
	pbN = 768
)

// actBytes is the float32 activation traffic of an m-row call: a in, out
// out.
func actBytes(m int) int64 { return 4 * int64(m*pbK+m*pbN) }

func packedBenchOperands(b *testing.B) (a, w *tensor.Tensor) {
	b.Helper()
	g := tensor.NewRNG(21)
	return g.Normal(0, 1, pbM, pbK), g.Normal(0, 1, pbK, pbN)
}

type packedWeight interface {
	tensor.PackedMat
	StorageBytes() int64
}

func benchFused(b *testing.B, p packedWeight, a *tensor.Tensor) {
	b.Helper()
	out := tensor.New(a.Rows(), pbN)
	scratch := tensor.NewPackedScratch()
	tensor.MatMulPackedInto(out, a, p, scratch) // warm
	b.SetBytes(p.StorageBytes() + actBytes(a.Rows()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulPackedInto(out, a, p, scratch)
	}
	b.StopTimer()
	b.ReportMetric(float64(p.StorageBytes()), "wbytes")
}

func BenchmarkPackedMatMulFused2(b *testing.B) {
	a, w := packedBenchOperands(b)
	benchFused(b, quant.Pack(w, 2), a)
}

func BenchmarkPackedMatMulFused4(b *testing.B) {
	a, w := packedBenchOperands(b)
	benchFused(b, quant.Pack(w, 4), a)
}

func BenchmarkPackedMatMulFused8(b *testing.B) {
	a, w := packedBenchOperands(b)
	benchFused(b, quant.Pack(w, 8), a)
}

// BenchmarkMatMulPackedGrid is EXPERIMENTS.md's kernel table and DESIGN.md
// §6's row-count table: every width LUC emits, at one row and two (the
// fused one- and two-row MulVecInto), three and four (on an AVX-512 host
// the eight-row kernel over a padded group), a decode batch and its
// multiples (groups of eight; elsewhere, and at 8 bits, the tile decode and
// sweep) and a prefill run, each also as GMAC/s. Ungated, and named so the
// gate jobs' 'BenchmarkPack' pattern leaves it out.
func BenchmarkMatMulPackedGrid(b *testing.B) {
	_, w := packedBenchOperands(b)
	weights := []struct {
		name string
		p    packedWeight
	}{
		{"2b", quant.Pack(w, 2)}, {"3b", quant.Pack(w, 3)}, {"4b", quant.Pack(w, 4)}, {"8b", quant.Pack(w, 8)},
	}
	gmacs := func(b *testing.B, m int) {
		b.ReportMetric(float64(m*pbK*pbN)*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GMAC/s")
	}
	for _, m := range []int{1, 2, 3, 4, 8, 16, 24} {
		a := tensor.NewRNG(22).Normal(0, 1, m, pbK)
		for _, wt := range weights {
			b.Run(fmt.Sprintf("m%d/%s", m, wt.name), func(b *testing.B) {
				benchFused(b, wt.p, a)
				gmacs(b, m)
			})
		}
		b.Run(fmt.Sprintf("m%d/f32", m), func(b *testing.B) {
			out := tensor.New(m, pbN)
			b.SetBytes(4*pbK*pbN + actBytes(m))
			for i := 0; i < b.N; i++ {
				tensor.MatMulInto(out, a, w)
			}
			gmacs(b, m)
		})
	}
}

// BenchmarkPackedMatMulDequant4 is the materialize baseline the fused
// kernel's speedup is gated against: per op it unpacks the whole weight to
// a fresh float32 matrix and runs the dense kernel — the only execution
// strategy the repo had before fused kernels, and what a naive integration
// would still do.
func BenchmarkPackedMatMulDequant4(b *testing.B) {
	a, w := packedBenchOperands(b)
	p := quant.Pack(w, 4)
	out := tensor.New(pbM, pbN)
	b.SetBytes(p.StorageBytes() + 4*pbK*pbN + actBytes(pbM)) // the codes, then the float32 copy read back
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, p.Unpack())
	}
}

// BenchmarkPackedMatMulFloat32 is the dense kernel over already-resident
// float32 weights, the serial side of BENCH_packed.json's
// packed_fused4_vs_float32 pair, judged on the avx512 path only. It streams
// its 2.25 MB at memory speed. The fused one-row kernel is bound by the
// vector µops of its code extraction: on an AVX-512 host, decoding 16 lanes
// at a time, it is 1.15–1.3× faster on an eighth of the bytes; the AVX2
// loop, 8 lanes at a time, reads 0.8–0.95× (GOMAXPROCS 1, 2-vCPU AVX-512
// Xeon guest). From eight rows up each decoded code word serves every row
// and the two are level — EXPERIMENTS.md "Packed execution".
func BenchmarkPackedMatMulFloat32(b *testing.B) {
	a, w := packedBenchOperands(b)
	out := tensor.New(pbM, pbN)
	b.SetBytes(4*pbK*pbN + actBytes(pbM))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, a, w)
	}
}
