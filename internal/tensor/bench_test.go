package tensor

import (
	"fmt"
	"testing"
)

// benchSize is the square matmul edge used by the kernel benchmarks. 512³
// MACs (128M) is far above parallelThreshold, so the banded parallel path
// is exercised; the *Serial* variants call the band functions directly over
// the full row range, giving an in-run parallel-vs-serial comparison that
// benchguard turns into a speedup figure.
const benchSize = 512

func benchOperands(b *testing.B, rows, cols int) (x, y *Tensor) {
	b.Helper()
	g := NewRNG(1)
	return g.Normal(0, 1, rows, cols), g.Normal(0, 1, rows, cols)
}

func BenchmarkKernelMatMul512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(out, x, y)
	}
}

// MatMulTInto and TMatMulInto are the two backward-pass kernels (dX = dY × Wᵀ and
// dW = Xᵀ × dY), so their parallel-vs-serial ratio is the training hot
// path's speedup.

func BenchmarkKernelMatMulT512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTInto(out, x, y)
	}
}

// BenchmarkKernelMatMulTSerial512 is MatMulTInto's two calls with the
// matmul run as one band: the transpose into a fresh temporary, then
// matmulRows over the whole row range.
func BenchmarkKernelMatMulTSerial512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		yT := New(benchSize, benchSize)
		TransposeInto(yT, y)
		matmulRows(out, x, yT, 0, benchSize)
	}
}

func BenchmarkKernelTMatMul512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TMatMulInto(out, x, y)
	}
}

func BenchmarkKernelTMatMulSerial512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range out.Data {
			out.Data[j] = 0
		}
		tmatmulRows(out, x, y, 0, benchSize)
	}
}

// BenchmarkKernelMatMulRows times MatMulInto at three row counts the tile
// kernel serves: a batch-8 decode step and a 16-row prefill chunk through a
// 256 × 768 projection, and a 128-row training matmul through
// tune_window's 128 × 384 MLP matrix.
// Both stay below parallelThreshold, so this is one band's kernel speed,
// reported as GMAC/s; the 0 allocs/op is gated, the speed is report-only.
func BenchmarkKernelMatMulRows(b *testing.B) {
	for _, sh := range [][3]int{{8, 256, 768}, {16, 256, 768}, {128, 128, 384}} {
		m, k, n := sh[0], sh[1], sh[2]
		b.Run(fmt.Sprintf("%dx%dx%d", m, k, n), func(b *testing.B) {
			g := NewRNG(4)
			x, y, out := g.Normal(0, 1, m, k), g.Normal(0, 1, k, n), New(m, n)
			b.ReportAllocs()
			for b.Loop() {
				MatMulInto(out, x, y)
			}
			b.ReportMetric(float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

func BenchmarkKernelTranspose1024(b *testing.B) {
	g := NewRNG(2)
	x := g.Normal(0, 1, 1024, 1024)
	out := New(1024, 1024)
	b.SetBytes(4 * 1024 * 1024 * 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TransposeInto(out, x)
	}
}

// adamWBenchElems is the parameter count of a two-block tuning window of
// bench's tune_window model (dim 128, hidden 384): per block four dim²
// attention projections, three dim × hidden MLP matrices and two norm gains.
const adamWBenchElems = 2 * (4*128*128 + 3*128*384 + 2*128)

// benchAdamW times one AdamW update of a window's worth of parameters, at
// step 10 with weight decay, through update. BenchmarkAdamWStep over
// BenchmarkAdamWStepGo is the assembly's speedup over its Go twin, which
// benchguard gates.
func benchAdamW(b *testing.B, update func(w, g, m, v []float32, c AdamWStep)) {
	g := NewRNG(3)
	w, grad := g.Normal(0, 1, 1, adamWBenchElems).Data, g.Normal(0, 0.1, 1, adamWBenchElems).Data
	m, v := make([]float32, adamWBenchElems), make([]float32, adamWBenchElems)
	c := adamWConsts(10, 0.01, 0.01)
	b.SetBytes(4 * 4 * adamWBenchElems)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		update(w, grad, m, v, c)
	}
}

func BenchmarkAdamWStep(b *testing.B)   { benchAdamW(b, AdamW) }
func BenchmarkAdamWStepGo(b *testing.B) { benchAdamW(b, adamWGo) }

// BenchmarkKernelPoolGetPut measures the steady-state cost of one arena
// round trip, including the zero-fill on Get. allocs/op must stay 0 —
// benchguard gates it against the checked-in baseline.
func BenchmarkKernelPoolGetPut(b *testing.B) {
	p := NewPool()
	p.Put(p.Get(64, 64)) // warm the free list
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t := p.Get(64, 64)
		p.Put(t)
	}
}

// TestBenchSizeAboveThreshold guards the premise of the kernel benchmarks:
// if parallelThreshold ever grows past 512³, the "parallel" benchmarks
// would silently measure the serial path.
func TestBenchSizeAboveThreshold(t *testing.T) {
	if macs := benchSize * benchSize * benchSize; macs < parallelThreshold {
		t.Fatalf("benchSize³ = %d below parallelThreshold %d", macs, parallelThreshold)
	}
}
