package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// PackedMat is a bit-packed rank-2 weight matrix that can expand tiles of
// itself into float32 scratch. It is the seam between the tensor kernels
// and the quantized formats in internal/quant (which cannot be imported
// here without a cycle): the packed kernels below never materialize the
// whole matrix, only one blockSize-row band at a time, so a packed
// weight's float32 footprint during a matmul is blockSize·cols·4 bytes of
// reusable scratch instead of rows·cols·4.
type PackedMat interface {
	// Dims returns the logical (rows, cols) of the matrix.
	Dims() (rows, cols int)
	// DecodeRowsInto dequantizes the tile rows [rowLo,rowHi) × cols
	// [colLo,colHi) into dst, row-major with stride colHi-colLo. dst must
	// have at least (rowHi-rowLo)·(colHi-colLo) elements. The decoded
	// values must be bitwise identical to the corresponding elements of
	// the format's full Unpack — the packed kernels' bitwise-equality
	// contract rests on it.
	DecodeRowsInto(dst []float32, rowLo, rowHi, colLo, colHi int)
}

// PackedScratch holds the per-worker tile-decode buffers for the packed
// matmul kernels. One scratch may be reused across any number of
// sequential kernel calls (buffers grow to the largest request and stay),
// which is what keeps the decode hot loop at zero allocations per token.
// A scratch must not be shared by two kernel calls running concurrently;
// give each goroutine driving packed matmuls its own.
type PackedScratch struct {
	bufs [][]float32
}

// NewPackedScratch returns an empty scratch; buffers are grown on first
// use by each kernel.
func NewPackedScratch() *PackedScratch {
	return &PackedScratch{}
}

// ensure returns workers buffers of at least elems float32s each, growing
// the scratch as needed. Called from the kernel prologue, before any
// worker goroutines exist, so it needs no locking.
func (s *PackedScratch) ensure(workers, elems int) [][]float32 {
	for len(s.bufs) < workers {
		s.bufs = append(s.bufs, nil)
	}
	for i := 0; i < workers; i++ {
		if len(s.bufs[i]) < elems {
			s.bufs[i] = make([]float32, elems)
		}
	}
	return s.bufs[:workers]
}

// MatMulPackedInto computes out = a × w for a packed weight w, reusing
// out's storage: (m,k)×(k,n) → (m,n). Results are bitwise identical to
// MatMulInto(out, a, w.Unpack()) at any GOMAXPROCS: each output element
// accumulates its k terms in ascending order with the same zero skip as
// matmulRows, and column bands own disjoint output columns. Band decode through
// scratch amortizes bit extraction across a whole (k-block × n) row band,
// decoded row-contiguously — the packed format's fastest path — and keeps
// the inner axpy full-width, matching the dense kernel's loop shape.
// scratch may be nil (a temporary is allocated); pass a reused scratch on
// hot paths.
func MatMulPackedInto(out, a *Tensor, w PackedMat, scratch *PackedScratch) {
	m, k := a.Rows(), a.Cols()
	wr, n := w.Dims()
	if wr != k || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulPackedInto shape mismatch out %v = %v × packed(%d,%d)", out.Shape, a.Shape, wr, n))
	}
	for i := range out.Data {
		out.Data[i] = 0
	}
	if scratch == nil {
		scratch = NewPackedScratch()
	}
	workers := packedColWorkers(n, m*n*k)
	band := (n + workers - 1) / workers
	bufs := scratch.ensure(workers, blockSize*band)
	if workers <= 1 {
		matmulPackedCols(out, a, w, bufs[0], 0, n)
		return
	}
	var wg sync.WaitGroup
	wi := 0
	for lo := 0; lo < n; lo += band {
		hi := min(lo+band, n)
		wg.Add(1)
		go func(buf []float32, lo, hi int) {
			defer wg.Done()
			matmulPackedCols(out, a, w, buf, lo, hi)
		}(bufs[wi], lo, hi)
		wi++
	}
	wg.Wait()
}

// packedColWorkers is the packed kernels' fan-out: unlike the dense
// kernels' row banding, the packed kernels band over *output columns* so
// each worker decodes only its own column range of w — the whole weight is
// bit-extracted exactly once per matmul at any worker count, where row
// banding would decode it once per worker. Capped at the column block
// count to keep each band's decode runs wide.
func packedColWorkers(n, macs int) int {
	if macs < parallelThreshold {
		return 1
	}
	workers := runtime.GOMAXPROCS(0)
	if blocks := (n + blockSize - 1) / blockSize; workers > blocks {
		workers = blocks
	}
	return workers
}

// matmulPackedCols computes out columns [jLo, jHi) of a × w (all rows). A
// k-block × band-width slab of w is decoded once into buf and reused by
// every activation row, so the inner loop is the same scaled row
// accumulation matmulRows runs on a dense b, restricted to the band's
// columns. Per output element the accumulation is one ascending-k sweep
// through out's storage — exactly matmulRows' order, with the same zero
// skip — so neither the k-blocking nor the column banding can change
// results.
func matmulPackedCols(out, a *Tensor, w PackedMat, buf []float32, jLo, jHi int) {
	m, k, n := a.Rows(), a.Cols(), out.Cols()
	jw := jHi - jLo
	for k0 := 0; k0 < k; k0 += blockSize {
		kMax := min(k0+blockSize, k)
		w.DecodeRowsInto(buf, k0, kMax, jLo, jHi)
		for i0 := 0; i0 < m; i0 += blockSize {
			iMax := min(i0+blockSize, m)
			for i := i0; i < iMax; i++ {
				aRow := a.Data[i*k : (i+1)*k]
				outRow := out.Data[i*n+jLo : i*n+jHi]
				for kk := k0; kk < kMax; kk++ {
					av := aRow[kk]
					if av == 0 {
						continue
					}
					bRow := buf[(kk-k0)*jw : (kk-k0+1)*jw]
					for j, bv := range bRow {
						outRow[j] += av * bv
					}
				}
			}
		}
	}
}
