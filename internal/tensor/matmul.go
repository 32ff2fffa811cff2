package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// blockSize is the tile edge of the matmul family: MatMulTInto and
// TransposeInto walk blockSize × blockSize tiles of their output, and the
// column-lane kernels (matmulRows, tmatmulRows) take b a blockSize-column
// block at a time, so the k × 64 floats every row of a band sweeps stay
// cache-resident from one row to the next. 64 columns are also exactly the
// eight 8-lane accumulators SumCols keeps in registers.
const blockSize = 64

// parallelThreshold is the MAC count from which the Into kernels fan out
// bands to worker goroutines: about half a millisecond of AVX2 kernel.
// Measured at GOMAXPROCS 2 (EXPERIMENTS.md "Packed execution", fan-out
// thresholds): back to back, two bands draw with one around 2^21 MACs and
// win from 3M; inside a decode step, where the second P has parked by the
// time the next matmul arrives, fanning out the 2^22-MAC LM head of a
// batch-8 step and the 3M-MAC projections of a 16-row prefill step still
// cost more than it saved.
const parallelThreshold = 1 << 23

// bandRows splits the output-row range [0, m) into contiguous bands and
// runs fn(lo, hi) for each, in parallel when the kernel is large enough.
// Each band owns a disjoint set of output rows and every per-row
// accumulation order is independent of the banding, so results are
// byte-identical at any GOMAXPROCS — the determinism guarantee all three
// matmul kernels share.
func bandRows(m, macs int, fn func(lo, hi int)) {
	workers := bandWorkers(m, macs)
	if workers <= 1 {
		fn(0, m)
		return
	}
	var wg sync.WaitGroup
	band := (m + workers - 1) / workers
	for lo := 0; lo < m; lo += band {
		hi := min(lo+band, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}

// bandWorkers returns the band count bandRows would fan out to: 1 below the
// parallel threshold, else GOMAXPROCS capped at the row count. Kernels call
// it to take an allocation-free serial path without constructing the band
// closure — the decode hot loop's zero-allocs-per-token pin relies on this.
func bandWorkers(m, macs int) int {
	if macs < parallelThreshold {
		return 1
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > m {
		workers = m
	}
	return workers
}

// MatMul returns a × b for rank-2 tensors, (m,k)×(k,n) → (m,n).
//
// The kernel is column-block-outer (matmulRows): each output element is one
// ascending-k sum held in a register and stored once. The Go compiler does
// not vectorise; on amd64 the sweep is the AVX2 SumCols kernel, eight
// columns to a register.
func MatMul(a, b *Tensor) *Tensor {
	m, k := a.Rows(), a.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.Shape, b.Shape))
	}
	out := New(m, n)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = a × b, reusing out's storage. out must have
// shape (a.Rows(), b.Cols()) and is overwritten.
func MatMulInto(out, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	if b.Rows() != k || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch out %v = %v × %v", out.Shape, a.Shape, b.Shape))
	}
	if bandWorkers(m, m*n*k) <= 1 {
		matmulRows(out, a, b, 0, m)
		return
	}
	bandRows(m, m*n*k, func(lo, hi int) { matmulRows(out, a, b, lo, hi) })
}

// matmulRows computes out rows [rowLo, rowHi) of a × b, every element
// overwritten: out[i][j] = Σ_k a[i][k]·b[k][j], ascending k from +0,
// skipping a == 0.
func matmulRows(out, a, b *Tensor, rowLo, rowHi int) {
	k := a.Cols()
	sweepCols(out, a.Data, k, 1, b, k, rowLo, rowHi)
}

// sweepCols is the loop both column-lane kernels share: out row i is the
// sum over kk of a[i·aRow + kk·aStride] times b's row kk, through SumCols a
// blockSize-wide block of columns at a time, block-outer so that the band's
// rows reuse the block while it is cached.
func sweepCols(out *Tensor, a []float32, aRow, aStride int, b *Tensor, k, rowLo, rowHi int) {
	n := b.Cols()
	for j0 := 0; j0 < n; j0 += blockSize {
		jw := min(blockSize, n-j0)
		for i := rowLo; i < rowHi; i++ {
			SumCols(out.Data[i*n+j0:i*n+j0+jw], a[i*aRow:], aStride, b.Data[j0:], n, k)
		}
	}
}

// MatMulT returns a × bᵀ, (m,k)×(n,k) → (m,n). This layout is the natural
// one for gradient computation (dX = dY × Wᵀ) and for weight matrices
// stored output-major.
func MatMulT(a, bT *Tensor) *Tensor {
	out := New(a.Rows(), bT.Rows())
	MatMulTInto(out, a, bT)
	return out
}

// MatMulTInto computes out = a × bᵀ, reusing out's storage. out must have
// shape (a.Rows(), bT.Rows()) and is fully overwritten (no need to zero it
// first). Each output element is a single k-ascending float32 dot product,
// so the result is independent of blocking and banding.
func MatMulTInto(out, a, bT *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, k2 := bT.Rows(), bT.Cols()
	if k != k2 || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulTInto shape mismatch out %v = %v × %vᵀ", out.Shape, a.Shape, bT.Shape))
	}
	if bandWorkers(m, m*n*k) <= 1 {
		matmulTRows(out, a, bT, 0, m)
		return
	}
	bandRows(m, m*n*k, func(lo, hi int) { matmulTRows(out, a, bT, lo, hi) })
}

// matmulTRows computes out rows [rowLo, rowHi) of a × bᵀ. Both operands are
// read row-contiguously; i/j tiles keep the active a rows and bT rows warm
// while k runs full-length so the accumulation order never changes.
func matmulTRows(out, a, bT *Tensor, rowLo, rowHi int) {
	k, n := a.Cols(), bT.Rows()
	for i0 := rowLo; i0 < rowHi; i0 += blockSize {
		iMax := min(i0+blockSize, rowHi)
		for j0 := 0; j0 < n; j0 += blockSize {
			jMax := min(j0+blockSize, n)
			for i := i0; i < iMax; i++ {
				aRow := a.Data[i*k : (i+1)*k]
				outRow := out.Data[i*n : (i+1)*n]
				for j := j0; j < jMax; j++ {
					bRow := bT.Data[j*k : (j+1)*k]
					var s float32
					for kk, av := range aRow {
						s += av * bRow[kk]
					}
					outRow[j] = s
				}
			}
		}
	}
}

// TMatMul returns aᵀ × b, (k,m)×(k,n) → (m,n). This is the natural layout
// for weight gradients (dW = Xᵀ × dY).
func TMatMul(aT, b *Tensor) *Tensor {
	out := New(aT.Cols(), b.Cols())
	TMatMulInto(out, aT, b)
	return out
}

// TMatMulInto computes out = aᵀ × b, reusing out's storage. out must have
// shape (aT.Cols(), b.Cols()) and is overwritten. Every output element
// accumulates its k terms in ascending-k order regardless of blocking or
// banding, so results are byte-identical at any GOMAXPROCS.
func TMatMulInto(out, aT, b *Tensor) {
	k, m := aT.Rows(), aT.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: TMatMulInto shape mismatch out %v = %vᵀ × %v", out.Shape, aT.Shape, b.Shape))
	}
	if bandWorkers(m, m*n*k) <= 1 {
		tmatmulRows(out, aT, b, 0, m)
		return
	}
	bandRows(m, m*n*k, func(lo, hi int) { tmatmulRows(out, aT, b, lo, hi) })
}

// tmatmulRows computes out rows [rowLo, rowHi) of aᵀ × b, every element
// overwritten: matmulRows with a read down a column of aT (stride m)
// instead of along a row.
func tmatmulRows(out, aT, b *Tensor, rowLo, rowHi int) {
	sweepCols(out, aT.Data, 1, aT.Cols(), b, aT.Rows(), rowLo, rowHi)
}

// Transpose returns the transpose of a rank-2 tensor.
func Transpose(t *Tensor) *Tensor {
	out := New(t.Cols(), t.Rows())
	TransposeInto(out, t)
	return out
}

// TransposeInto computes out = tᵀ, reusing out's storage. out must have
// shape (t.Cols(), t.Rows()) and is fully overwritten. The copy is tiled so
// both the row-contiguous reads and the column-strided writes stay within a
// cache-resident blockSize×blockSize tile.
func TransposeInto(out, t *Tensor) {
	r, c := t.Rows(), t.Cols()
	if out.Rows() != c || out.Cols() != r {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch out %v = %vᵀ", out.Shape, t.Shape))
	}
	for i0 := 0; i0 < r; i0 += blockSize {
		iMax := min(i0+blockSize, r)
		for j0 := 0; j0 < c; j0 += blockSize {
			jMax := min(j0+blockSize, c)
			for i := i0; i < iMax; i++ {
				row := t.Data[i*c : (i+1)*c]
				for j := j0; j < jMax; j++ {
					out.Data[j*r+i] = row[j]
				}
			}
		}
	}
}

// AddRowBroadcast adds a rank-1 bias (length c) to every row of a rank-2
// tensor (r,c), in place.
func (t *Tensor) AddRowBroadcast(bias *Tensor) {
	c := t.Cols()
	if bias.Rank() != 1 || bias.Shape[0] != c {
		panic(fmt.Sprintf("tensor: AddRowBroadcast bias %v incompatible with %v", bias.Shape, t.Shape))
	}
	r := t.Rows()
	for i := 0; i < r; i++ {
		row := t.Row(i)
		for j, v := range bias.Data {
			row[j] += v
		}
	}
}
