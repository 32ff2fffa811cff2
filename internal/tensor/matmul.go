package tensor

import (
	"fmt"
	"sync"
)

// blockSize is the tile edge of the matmul family: TransposeInto walks
// blockSize × blockSize tiles of its output, and the column-lane kernels
// (MatMulInto, tmatmulRows) take b a blockSize-column block at a time, so
// the k × 64 floats every row sweeps stay cache-resident from one row to the
// next. 64 columns are also exactly the
// eight 8-lane accumulators SumCols keeps in registers.
const blockSize = 64

// BlockCols is the column block of the matmul kernels (blockSize): a caller
// that splits one product's output columns across a Team's lanes
// (MatMulColsInto, MatMulPackedColsInto) splits at multiples of it, so that
// every unit is swept by the same kernels, a block at a time, as the whole
// call would be.
const BlockCols = blockSize

// MatMulInto computes out = a × b for rank-2 tensors, (m,k)×(k,n) → (m,n),
// reusing out's storage. out must have shape (a.Rows(), b.Cols()) and is
// overwritten.
//
// The kernel is column-block-outer (sumColsRows): each output element is one
// ascending-k sum from +0, skipping a == 0, held in a register and stored
// once. The Go compiler does not vectorise; on amd64 the sweep is the AVX2
// SumCols kernel, eight columns to a register. The call runs on its caller
// at any GOMAXPROCS: a caller that owns cores splits the product into
// MatMulColsInto units on its Team.
func MatMulInto(out, a, b *Tensor) {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	if b.Rows() != k || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulInto shape mismatch out %v = %v × %v", out.Shape, a.Shape, b.Shape))
	}
	sumColsRows(out.Data, n, n, a.Data, k, 1, b.Data, n, k, m)
}

// MatMulColsInto computes columns [jLo, jHi) of out = a × b, all rows, on the
// calling goroutine, and writes nothing else of out: each element the same
// ascending-k sum MatMulInto stores there. Goroutines may run calls on one out
// at once over disjoint column ranges; with jLo a multiple of BlockCols the
// range is swept in the blocks MatMulInto uses.
func MatMulColsInto(out, a, b *Tensor, jLo, jHi int) {
	m, k := a.Rows(), a.Cols()
	n := b.Cols()
	if b.Rows() != k || out.Rows() != m || out.Cols() != n || jLo < 0 || jLo > jHi || jHi > n {
		panic(fmt.Sprintf("tensor: MatMulColsInto shape mismatch out %v[:, %d:%d] = %v × %v", out.Shape, jLo, jHi, a.Shape, b.Shape))
	}
	if m == 0 || jLo == jHi {
		return
	}
	sumColsRows(out.Data[jLo:], n, jHi-jLo, a.Data, k, 1, b.Data[jLo:], n, k, m)
}

// MatMulTInto computes out = a × bᵀ, (m,k)×(n,k) → (m,n), reusing out's
// storage. This layout is the natural one for gradient computation
// (dX = dY × Wᵀ) and for weight matrices stored output-major. out must have
// shape (a.Rows(), bT.Rows()) and is fully overwritten (no need to zero it
// first). It transposes bT into a pooled temporary and runs MatMulInto over
// it — the k·n moves of the transpose against m·k·n MACs — so each output
// element is the one ascending-k sum from +0 every column-lane kernel
// computes, zero activations skipped. Callers with an arena (autograd's
// MatMul backward) make the same two calls on their own scratch.
func MatMulTInto(out, a, bT *Tensor) {
	m, k := a.Rows(), a.Cols()
	n, k2 := bT.Rows(), bT.Cols()
	if k != k2 || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: MatMulTInto shape mismatch out %v = %v × %vᵀ", out.Shape, a.Shape, bT.Shape))
	}
	b := transposeTemp(k, n)
	TransposeInto(b, bT)
	MatMulInto(out, a, b)
	transposeTemps.Put(b)
}

// transposeTemps holds MatMulTInto's transposed operands between calls. The
// transpose overwrites all of one, so a warm call neither allocates nor
// clears its 4·k·n bytes: at 512 × 512 a fresh megabyte a call, and the
// collections it set off, cost more than the transpose. The collector
// frees a temporary left unused through two cycles.
var transposeTemps sync.Pool

// transposeTemp returns a (k, n) tensor of unspecified contents: a pooled
// one whose buffer holds k·n elements, or else a new one.
func transposeTemp(k, n int) *Tensor {
	t, _ := transposeTemps.Get().(*Tensor)
	if t == nil || cap(t.Data) < k*n {
		return New(k, n)
	}
	t.Data, t.Shape = t.Data[:k*n], append(t.Shape[:0], k, n)
	return t
}

// TMatMulInto computes out = aᵀ × b, (k,m)×(k,n) → (m,n), reusing out's
// storage: the natural layout for weight gradients (dW = Xᵀ × dY). out
// must have shape (aT.Cols(), b.Cols()) and is overwritten. Every output
// element accumulates its k terms in ascending-k order whichever rows a call
// covers (tmatmulRows), so a product split by rows across a Team's lanes
// gives the one call's bits.
func TMatMulInto(out, aT, b *Tensor) {
	k, m := aT.Rows(), aT.Cols()
	k2, n := b.Rows(), b.Cols()
	if k != k2 || out.Rows() != m || out.Cols() != n {
		panic(fmt.Sprintf("tensor: TMatMulInto shape mismatch out %v = %vᵀ × %v", out.Shape, aT.Shape, b.Shape))
	}
	tmatmulRows(out, aT, b, 0, m)
}

// tmatmulRows computes out rows [rowLo, rowHi) of aᵀ × b, every element
// overwritten: MatMulInto's sums with a read down a column of aT (stride m)
// instead of along a row.
func tmatmulRows(out, aT, b *Tensor, rowLo, rowHi int) {
	n := b.Cols()
	sumColsRows(out.Data[rowLo*n:], n, n, aT.Data[rowLo:], 1, aT.Cols(), b.Data, n, aT.Rows(), rowHi-rowLo)
}

// TransposeInto computes out = tᵀ, reusing out's storage. out must have
// shape (t.Cols(), t.Rows()) and is fully overwritten. The copy walks
// blockSize × blockSize tiles, so both the row-contiguous reads and the
// column-strided writes stay cache-resident, and inside a tile moves 8 × 8
// blocks: eight source rows are read eight floats at a time and each
// destination row is written eight floats at a time, where an element-wise
// walk would store one float per cache line it touches. On amd64 with AVX2
// a band of blocks goes to transpose8AVX2, one register a row; elsewhere
// each block to transpose8. What whole blocks leave at the right and bottom
// edges goes element by element.
func TransposeInto(out, t *Tensor) {
	r, c := t.Rows(), t.Cols()
	if out.Rows() != c || out.Cols() != r {
		panic(fmt.Sprintf("tensor: TransposeInto shape mismatch out %v = %vᵀ", out.Shape, t.Shape))
	}
	src, dst := t.Data, out.Data
	r8, c8 := r&^7, c&^7
	for i0 := 0; i0 < r8; i0 += blockSize {
		iMax := min(i0+blockSize, r8)
		for j0 := 0; j0 < c8; j0 += blockSize {
			jMax := min(j0+blockSize, c8)
			for i := i0; i < iMax; i += 8 {
				if useAVX2 {
					// the band's last block: its last row holds its last element
					_, _ = src[(i+7)*c+jMax-1], dst[(jMax-1)*r+i+7]
					transpose8AVX2(&dst[j0*r+i], r, &src[i*c+j0], c, (jMax-j0)/8)
					continue
				}
				for j := j0; j < jMax; j += 8 {
					transpose8(dst[j*r+i:], r, src[i*c+j:], c)
				}
			}
		}
	}
	for i := 0; i < r; i++ {
		jLo := c8
		if i >= r8 {
			jLo = 0
		}
		row := src[i*c : (i+1)*c]
		for j := jLo; j < c; j++ {
			dst[j*r+i] = row[j]
		}
	}
}

// transpose8 writes the 8 × 8 block of src (rows ls apart) transposed into
// dst (rows ld apart).
func transpose8(dst []float32, ld int, src []float32, ls int) {
	_ = src[7*ls+7]
	_ = dst[7*ld+7]
	s0 := (*[8]float32)(src[0*ls:])
	s1 := (*[8]float32)(src[1*ls:])
	s2 := (*[8]float32)(src[2*ls:])
	s3 := (*[8]float32)(src[3*ls:])
	s4 := (*[8]float32)(src[4*ls:])
	s5 := (*[8]float32)(src[5*ls:])
	s6 := (*[8]float32)(src[6*ls:])
	s7 := (*[8]float32)(src[7*ls:])
	for j := 0; j < 8; j++ {
		d := (*[8]float32)(dst[j*ld:])
		d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7] = s0[j], s1[j], s2[j], s3[j], s4[j], s5[j], s6[j], s7[j]
	}
}
