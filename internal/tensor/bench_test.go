package tensor

import "testing"

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

// MatMulT and TMatMul are the two backward-pass kernels (dX = dY × Wᵀ and
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

func BenchmarkKernelMatMulTSerial512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		matmulTRows(out, x, y, 0, benchSize)
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
