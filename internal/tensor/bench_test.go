package tensor

import (
	"fmt"
	"runtime"
	"testing"
)

// benchSize is the square matmul edge used by the kernel benchmarks. The
// one-call kernels run on their caller; the *Team* variants split the same
// product on a team, giving an in-run parallel-vs-serial comparison that
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
// dW = Xᵀ × dY), so their team-vs-one-call ratio is what the training hot
// path gains from a team.

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

// BenchmarkKernelMatMulTTeam512 is MatMulTInto's two calls split as a caller
// with a team splits them: the transpose into the pooled temporary on the
// leader, then the product in BlockCols-column MatMulColsInto units.
func BenchmarkKernelMatMulTTeam512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	var yT *Tensor
	cols := unitFunc(func(_, u int) {
		jLo, jHi := colUnit(u, benchSize)
		MatMulColsInto(out, x, yT, jLo, jHi)
	})
	benchTeam(b, func(tm *Team) {
		yT = transposeTemp(benchSize, benchSize)
		TransposeInto(yT, y)
		tm.Run(cols, colUnits(benchSize))
		transposeTemps.Put(yT)
	})
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

// BenchmarkKernelTMatMulTeam512 is TMatMulInto split into BlockCols-row
// tmatmulRows units on a team.
func BenchmarkKernelTMatMulTeam512(b *testing.B) {
	x, y := benchOperands(b, benchSize, benchSize)
	out := New(benchSize, benchSize)
	rows := unitFunc(func(_, u int) { tmatmulRows(out, x, y, u*BlockCols, (u+1)*BlockCols) })
	benchTeam(b, func(tm *Team) { tm.Run(rows, benchSize/BlockCols) })
}

// benchTeam times step, one op each, on a team of min(GOMAXPROCS, NumCPU)
// lanes, the lane count a decoder picks: a step between Start and Park, back
// to back, as a caller that owns the team runs them. It loops b.N, not
// b.Loop: go1.24 runs a b.Loop benchmark's first -count whole before it sets
// -cpu's GOMAXPROCS, so the team would take the default's lanes.
func benchTeam(b *testing.B, step func(tm *Team)) {
	tm := NewTeam(min(runtime.GOMAXPROCS(0), runtime.NumCPU()))
	defer tm.Stop()
	b.SetBytes(4 * benchSize * benchSize * 3)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		tm.Start()
		step(tm)
		tm.Park()
	}
}

// BenchmarkKernelMatMulRows times MatMulInto at three row counts the tile
// kernel serves: a batch-8 decode step and a 16-row prefill chunk through a
// 256 × 768 projection, and a 128-row training matmul through
// tune_window's 128 × 384 MLP matrix. Those keep b cached from one op to
// the next; the streamed case is the batch-8 step again over
// streamedWeights distinct 256 × 768 weights in turn, 6 MiB, more than a
// core's L2 holds, so each op reads its b from further out, as a decode
// step of a model bigger than L2 does, and the tile's prefetch shows.
// Each is one call's kernel speed on its caller, reported as GMAC/s; the 0 allocs/op is gated, the speed is report-only.
func BenchmarkKernelMatMulRows(b *testing.B) {
	const streamedWeights = 8
	for _, sh := range [][4]int{{8, 256, 768, 1}, {16, 256, 768, 1}, {128, 128, 384, 1}, {8, 256, 768, streamedWeights}} {
		m, k, n, ws := sh[0], sh[1], sh[2], sh[3]
		name := fmt.Sprintf("%dx%dx%d", m, k, n)
		if ws > 1 {
			name += "-streamed"
		}
		b.Run(name, func(b *testing.B) {
			g := NewRNG(4)
			x, out := g.Normal(0, 1, m, k), New(m, n)
			ys := make([]*Tensor, ws)
			for i := range ys {
				ys[i] = g.Normal(0, 1, k, n)
			}
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				MatMulInto(out, x, ys[i%ws])
				i++
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
