package tensor

import (
	"fmt"
	"runtime"
	"sync"
)

// PackedBlockCols is the column granule of the packed kernels. Eight b-bit
// codes are exactly b bytes, so in a matrix whose column count is a
// multiple of 8 every row of every 8-column block starts on a byte boundary
// and loads as one word — and eight float32 are one AVX2 register.
const PackedBlockCols = 8

// packedTileCols is the width of the tile the multi-row packed kernel
// decodes and sweeps: four blocks, so SumCols runs four accumulators deep
// (one would wait out the add latency on every k) and the tile a worker
// holds is k·32 floats — 96 KB at k = 768.
const packedTileCols = 4 * PackedBlockCols

// PackedMat is a bit-packed rank-2 weight matrix that can expand tiles of
// itself into float32 scratch. It is the seam between the tensor kernels
// and the quantized formats in internal/quant (which cannot be imported
// here without a cycle): the packed kernels below never materialize the
// whole matrix, only one rows × packedTileCols tile at a time, so a packed
// weight's float32 footprint during a matmul is rows·32·4 bytes of reusable
// scratch per worker instead of rows·cols·4.
type PackedMat interface {
	// Dims returns the logical (rows, cols) of the matrix.
	Dims() (rows, cols int)
	// DecodeRowsInto dequantizes the tile rows [rowLo,rowHi) × cols
	// [colLo,colHi) into dst, row-major with stride colHi-colLo. dst must
	// have at least (rowHi-rowLo)·(colHi-colLo) elements. The decoded
	// values must be bitwise identical to the corresponding elements of
	// the format's full Unpack — the packed kernels' bitwise-equality
	// contract rests on it. The kernels ask for full-height tiles one
	// column block wide; a format makes that the fast case when the block
	// is word-aligned in its bit stream.
	DecodeRowsInto(dst []float32, rowLo, rowHi, colLo, colHi int)
	// MulVecInto is the one-activation-row kernel, fused with the decode:
	// out[j-colLo] = Σ_k a[k]·w[k][j] for colLo ≤ j < colHi, each output
	// one ascending-k float32 sum from +0 over exactly the values
	// DecodeRowsInto produces, skipping every a[k] == 0 — what decoding
	// the band and running matmulRows over it gives, bit for bit, without
	// the float32 round trip through scratch. It reports false, having
	// written nothing, when the band is not word-aligned in the format's
	// bit stream; the caller then goes through tiles.
	MulVecInto(out, a []float32, colLo, colHi int) bool
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
// out's storage: (m,k)×(k,n) → (m,n), every element overwritten. Results
// are bitwise identical to MatMulInto(out, a, w.Unpack()) at any
// GOMAXPROCS: each output element is one ascending-k float32 sum from +0
// with the same zero skip as matmulRows, over the same decoded values, and
// column bands own disjoint output columns. The loop is column-tile-outer
// (matmulPackedCols): a tile of w is decoded once and every activation row
// sweeps it with SumCols. scratch may be nil (a temporary is
// allocated); pass a reused scratch on hot paths.
func MatMulPackedInto(out, a *Tensor, w PackedMat, scratch *PackedScratch) {
	m, k := a.Rows(), a.Cols()
	wr, n := w.Dims()
	if wr != k || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulPackedInto shape mismatch out %v = %v × packed(%d,%d)", out.Shape, a.Shape, wr, n))
	}
	if scratch == nil {
		scratch = NewPackedScratch()
	}
	workers := packedColWorkers(n, m*n*k)
	// Bands are whole tiles, so a band boundary never splits a word-aligned
	// block into two unaligned halves and only the last band has a narrow
	// tile.
	band := (n + workers - 1) / workers
	band = (band + packedTileCols - 1) / packedTileCols * packedTileCols
	bufs := scratch.ensure(workers, k*packedTileCols)
	if workers <= 1 {
		matmulPackedCols(out, a, w, bufs[0], 0, n)
		return
	}
	var wg sync.WaitGroup
	wi := 0
	for lo := 0; lo < n; lo += band {
		hi := min(lo+band, n)
		wg.Add(1)
		go func(tile []float32, lo, hi int) {
			defer wg.Done()
			matmulPackedCols(out, a, w, tile, lo, hi)
		}(bufs[wi], lo, hi)
		wi++
	}
	wg.Wait()
}

// packedColWorkers is the packed kernels' fan-out: unlike the dense
// kernels' row banding, the packed kernels band over *output columns* so
// each worker decodes only its own column range of w — the whole weight is
// bit-extracted exactly once per matmul at any worker count, where row
// banding would decode it once per worker. Capped so that no band is
// narrower than blockSize columns: below that a goroutine costs more than
// it computes.
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

// matmulPackedCols computes out columns [jLo, jHi) of a × w (all rows),
// one tile at a time. A single activation row goes to the format's fused
// MulVecInto. Otherwise the full-height k × 32 tile is decoded once into
// scratch and each activation row then sweeps it with SumCols — the dense
// kernel's primitive, over a contiguous tile instead of a strided block of
// b.
func matmulPackedCols(out, a *Tensor, w PackedMat, tile []float32, jLo, jHi int) {
	m, k, n := a.Rows(), a.Cols(), out.Cols()
	if m == 1 && w.MulVecInto(out.Data[jLo:jHi], a.Data, jLo, jHi) {
		return
	}
	for j0 := jLo; j0 < jHi; j0 += packedTileCols {
		jw := min(packedTileCols, jHi-j0)
		w.DecodeRowsInto(tile, 0, k, j0, j0+jw)
		for i := 0; i < m; i++ {
			SumCols(out.Data[i*n+j0:i*n+j0+jw], a.Data[i*k:(i+1)*k], 1, tile, jw, k)
		}
	}
}
