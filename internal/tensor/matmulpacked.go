package tensor

import "fmt"

// PackedBlockCols is the column granule of the packed kernels. Eight b-bit
// codes are exactly b bytes, so in a matrix whose column count is a
// multiple of 8 every row of every 8-column block starts on a byte boundary
// and loads as one word — and eight float32 are one AVX2 register.
const PackedBlockCols = 8

// packedTileCols is the width of the tile the multi-row packed kernel
// decodes and sweeps where no fused kernel takes the rows: four blocks, so
// SumCols runs four accumulators deep (one would wait out the add latency on
// every k) and the tile a lane holds is k·32 floats — 96 KB at k = 768.
const packedTileCols = 4 * PackedBlockCols

// packedGroup is the row count of the widest fused packed kernel: on an
// AVX-512 host the rows of a call go to MulVecInto eight at a time, and a
// last group of three to seven rows is padded to eight with zero rows.
const packedGroup = 8

// PackedMat is a bit-packed rank-2 weight matrix that can expand tiles of
// itself into float32 scratch. It is the seam between the tensor kernels
// and the quantized formats in internal/quant (which cannot be imported
// here without a cycle): the packed kernels below never materialize the
// whole matrix, only one rows × packedTileCols tile at a time, so a packed
// weight's float32 footprint during a matmul is rows·32·4 bytes of reusable
// scratch per lane instead of rows·cols·4.
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
	// MulVecInto is the kernel for one, two or eight activation rows,
	// fused with the decode: for each r < rows,
	// out[r·outStride + j-colLo] = Σ_k a[r·K + k]·w[k][j] for
	// colLo ≤ j < colHi, with K the matrix's row count — each output one
	// ascending-k float32 sum from +0 over exactly the values
	// DecodeRowsInto produces, skipping every a == 0 of its own row. That
	// is what decoding the band and running MatMulInto over it gives, bit
	// for bit, without the float32 round trip through scratch; the rows
	// share each decoded code word. It reports false, having written
	// nothing, when the band is not word-aligned in the format's bit
	// stream or the format has no fused kernel for that many rows on this
	// host; the caller then goes through tiles.
	MulVecInto(out []float32, outStride int, a []float32, rows, colLo, colHi int) bool
}

// PackedScratch holds one buffer per lane for the packed matmul kernels: the
// tile a lane decodes, or the zero-padded group of rows it hands the
// eight-row kernel. One scratch may be reused across any number of kernel
// calls (buffers grow to the largest request and stay), which is what keeps
// the decode hot loop at zero allocations per token. Calls running at once
// on one scratch must use distinct lanes, each reserved beforehand.
type PackedScratch struct {
	bufs [][]float32
}

// NewPackedScratch returns an empty scratch; buffers are grown on first
// use by each kernel.
func NewPackedScratch() *PackedScratch {
	return &PackedScratch{}
}

// Reserve grows lanes 0 to lanes-1 of the scratch to hold what one
// MatMulPackedColsInto call over an (m,k)×(k,n) product needs. Call it from
// one goroutine, before the lanes run.
func (s *PackedScratch) Reserve(lanes, m, k, n int) {
	elems := packedElems(m, k, n)
	for len(s.bufs) < lanes {
		s.bufs = append(s.bufs, nil)
	}
	for i := range lanes {
		if len(s.bufs[i]) < elems {
			s.bufs[i] = make([]float32, elems)
		}
	}
}

// packedElems is the buffer one call over an (m,k)×(k,n) product needs: a
// full-height tile, or, where the last group of rows is padded
// (mulVecGroup), that group's rows and sums.
func packedElems(m, k, n int) int {
	elems := k * packedTileCols
	if useAVX512 && m%packedGroup >= 3 {
		elems = max(elems, packedGroup*(k+n))
	}
	return elems
}

// MatMulPackedInto computes out = a × w for a packed weight w, reusing
// out's storage: (m,k)×(k,n) → (m,n), every element overwritten, on the
// calling goroutine and lane 0 of scratch. Results are bitwise identical to
// MatMulInto(out, a, w.Unpack()): each output element is one ascending-k
// float32 sum from +0 with the same zero skip as MatMulInto, over the same
// decoded values. The loop is column-outer (matmulPackedCols): each code
// word is decoded once per group of rows the format's fused kernel takes, or
// once into a tile that every remaining activation row sweeps with SumCols.
// scratch may be nil (a temporary is allocated); pass a reused scratch on
// hot paths.
func MatMulPackedInto(out, a *Tensor, w PackedMat, scratch *PackedScratch) {
	_, n := w.Dims()
	if scratch == nil {
		scratch = NewPackedScratch()
	}
	scratch.Reserve(1, a.Rows(), a.Cols(), n)
	MatMulPackedColsInto(out, a, w, scratch, 0, 0, n)
}

// MatMulPackedColsInto computes columns [jLo, jHi) of out = a × w, all rows,
// on lane of scratch, and writes nothing else of out; each element is the one
// MatMulPackedInto stores there. Goroutines may run calls on one out and one
// scratch at once over disjoint column ranges and distinct lanes, each lane
// reserved for the product. jLo must be a multiple of BlockCols (a multiple
// of packedTileCols), so a range never splits a word-aligned block into two
// unaligned halves and only a range ending at n has a narrow tile.
func MatMulPackedColsInto(out, a *Tensor, w PackedMat, scratch *PackedScratch, lane, jLo, jHi int) {
	m, k := a.Rows(), a.Cols()
	wr, n := w.Dims()
	if wr != k || out.Rows() != m || out.Cols() != n || jLo%BlockCols != 0 || jLo < 0 || jLo > jHi || jHi > n {
		panic(fmt.Sprintf("tensor: MatMulPackedColsInto shape mismatch out %v[:, %d:%d] = %v × packed(%d,%d)", out.Shape, jLo, jHi, a.Shape, wr, n))
	}
	if lane >= len(scratch.bufs) || len(scratch.bufs[lane]) < packedElems(m, k, n) {
		panic(fmt.Sprintf("tensor: MatMulPackedColsInto lane %d of the scratch is not reserved for %d × %d × %d", lane, m, k, n))
	}
	matmulPackedCols(out, a, w, scratch.bufs[lane], jLo, jHi)
}

// matmulPackedCols computes out columns [jLo, jHi) of a × w (all rows).
// The rows the format's fused MulVecInto takes (mulVecRows) decode each code
// word once per group of rows, in registers; any it leaves go through tiles:
// the full-height k × 32 tile is decoded once into buf and those activation
// rows then sweep it with sumColsRows — the dense kernel's primitive, over a
// contiguous tile instead of a strided block of b. A full tile is exactly as
// wide as sumTileAVX512's 32-column pass, which its calls here always take:
// the tile was just decoded and is cached, so the 64-column pass's prefetch
// would buy nothing.
func matmulPackedCols(out, a *Tensor, w PackedMat, buf []float32, jLo, jHi int) {
	m, k, n := a.Rows(), a.Cols(), out.Cols()
	r := mulVecRows(out, a, w, buf, jLo, jHi)
	if r == m {
		return
	}
	tile := buf[:k*packedTileCols]
	for j0 := jLo; j0 < jHi; j0 += packedTileCols {
		jw := min(packedTileCols, jHi-j0)
		w.DecodeRowsInto(tile, 0, k, j0, j0+jw)
		sumColsRows(out.Data[r*n+j0:], n, jw, a.Data[r*k:], k, 1, tile, jw, k, m-r)
	}
}

// mulVecRows runs the leading rows of a × w over columns [jLo, jHi) through
// w.MulVecInto and returns how many it ran. On an AVX-512 host, from three
// rows up the rows go in groups of packedGroup (mulVecGroup). The one or two
// rows left, or a call of fewer than four rows where the format declines
// eight, go one pair at a time: four rows and up share one tile decode
// instead.
func mulVecRows(out, a *Tensor, w PackedMat, buf []float32, jLo, jHi int) int {
	m, k, n := a.Rows(), a.Cols(), out.Cols()
	r := 0
	for useAVX512 && m-r >= 3 {
		g := min(m-r, packedGroup)
		if !mulVecGroup(out, a, w, buf, r, g, jLo, jHi) {
			break
		}
		r += g
	}
	if m-r >= 4 {
		return r
	}
	for r < m {
		g := min(m-r, 2)
		if !w.MulVecInto(out.Data[r*n+jLo:], n, a.Data[r*k:], g, jLo, jHi) {
			break
		}
		r += g
	}
	return r
}

// mulVecGroup runs rows [r, r+g) of a × w through the eight-row MulVecInto,
// reporting false, having written nothing, where the format declines it. A
// group of fewer than eight rows is copied into buf beside zero rows, whose
// products the kernel's zero skip drops at the cost of a branch each, and
// its sums are copied back out (DESIGN.md §6, "Eight rows, one decode").
func mulVecGroup(out, a *Tensor, w PackedMat, buf []float32, r, g, jLo, jHi int) bool {
	k, n := a.Cols(), out.Cols()
	if g == packedGroup {
		return w.MulVecInto(out.Data[r*n+jLo:], n, a.Data[r*k:], g, jLo, jHi)
	}
	bw := jHi - jLo
	pa, po := buf[:packedGroup*k], buf[packedGroup*k:packedGroup*(k+bw)]
	copy(pa, a.Data[r*k:(r+g)*k])
	clear(pa[g*k:])
	if !w.MulVecInto(po, bw, pa, packedGroup, jLo, jHi) {
		return false
	}
	for i := range g {
		copy(out.Data[(r+i)*n+jLo:(r+i)*n+jHi], po[i*bw:(i+1)*bw])
	}
	return true
}
