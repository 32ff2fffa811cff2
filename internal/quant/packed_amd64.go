package quant

import "edgellm/internal/tensor"

// useAVX2 follows the tensor kernels: one CPUID read, in tensor, decides for
// both packages.
var useAVX2 = tensor.HasAVX2()

// useAVX512 follows tensor's AVX-512 kernels: eight activation rows of 2-
// to 4-bit codes take mulVec8AVX512 for whole groups of four blocks, and
// one or two rows mulVec1AVX512 or mulVec2AVX512 for whole groups of eight.
// There is no switch; only tests turn it off, to run both kernels in one
// process.
var useAVX512 = tensor.HasAVX512()

// zLevels[b] and zShifts[b] are the AVX-512 kernels' level table and lane
// shift counts at b bits: entry i of the table is the level of code i mod
// 2^b, so the bits above a code that a lane keeps select nothing, and lane j
// shifts by b·(j mod 8), the place of its code in its block's word.
var zLevels, zShifts = func() (levels [5][16]float32, shifts [5][16]uint32) {
	for b := 2; b <= 4; b++ {
		p := Packed{Bits: b}
		for i := range levels[b] {
			levels[b][i] = p.level(i & (1<<b - 1))
			shifts[b][i] = uint32(b * (i % blockCols))
		}
	}
	return levels, shifts
}()

//go:noescape
func mulVec1AVX512(out *float32, nBlocks int, a *float32, k int, codes *byte, rowBytes int, scale *float32, bits int, levels *float32, shifts *uint32)

//go:noescape
func mulVec2AVX512(out *float32, outStride, nBlocks int, a *float32, aRow, k int, codes *byte, rowBytes int, scale *float32, bits int, levels *float32, shifts *uint32)

//go:noescape
func mulVec8AVX512(out *float32, outStride, nBlocks int, a *float32, aRow, k int, codes *byte, rowBytes int, scale *float32, bits int, levels *float32, shifts *uint32)

//go:noescape
func mulVecAVX2(out *float32, outStride, nBlocks int, a *float32, aRow, k, rows int, codes *byte, rowBytes int, scale *float32, bits int)

//go:noescape
func decodeAVX2(dst *float32, dstStride int, nBlocks int, rows int, codes *byte, rowBytes int, scale *float32, bits int)

//go:noescape
func fakeQuantAVX2(dst, src *float32, rows, n, stride int, qmax float64)

// simdBand is what both AVX2 entry points need to know about the
// word-aligned band [colLo, colHi) over rows [0, rowHi): its blocks, where
// its codes and scales start, and whether the last block of row rowHi-1
// must stay off the assembly. The kernels load max(bits, 4) bytes for a
// block row, so below 4 bits the load of the stream's very last block would
// run 1 or 2 bytes past len(Codes); that one block row is decoded in Go.
type simdBand struct {
	nb, rowBytes int
	codes        []byte
	scale        []float32
	short        bool
}

func (p *Packed) simdBand(rowHi, colLo, colHi int) simdBand {
	rowBytes := p.Cols / blockCols * p.Bits
	if p.Rows > len(p.Codes)/rowBytes || len(p.Scale) < p.Cols || rowHi > p.Rows {
		panic("quant: packed matrix shorter than its shape")
	}
	lastWordEnd := (rowHi-1)*rowBytes + colHi/blockCols*p.Bits - p.Bits + max(p.Bits, 4)
	return simdBand{
		nb:       (colHi - colLo) / blockCols,
		rowBytes: rowBytes,
		codes:    p.Codes[colLo/blockCols*p.Bits:],
		scale:    p.Scale[colLo:colHi],
		short:    lastWordEnd > len(p.Codes),
	}
}

// mulVecSIMD is MulVecInto through the assembly (mulVecAsm): the sums
// accumulate in out, so the one block row the assembly may not load joins
// them in Go, in the same ascending-k position — the last.
func (p *Packed) mulVecSIMD(out []float32, outStride int, a []float32, rows, colLo, colHi int) {
	k, n := p.Rows, colHi-colLo
	for r := 0; r < rows; r++ {
		clear(out[r*outStride : r*outStride+n])
	}
	if k == 0 || n == 0 {
		return
	}
	// The assembly checks no bounds: the last element each operand is read
	// or written at must exist.
	_, _ = a[rows*k-1], out[(rows-1)*outStride+n-1]
	b := p.simdBand(k, colLo, colHi)
	if !b.short {
		p.mulVecAsm(out, outStride, b.nb, a, k, rows, b.codes, b.rowBytes, b.scale)
		return
	}
	if k > 1 {
		p.mulVecAsm(out, outStride, b.nb, a, k-1, rows, b.codes, b.rowBytes, b.scale)
	}
	if b.nb > 1 {
		p.mulVecAsm(out, outStride, b.nb-1, a[k-1:], 1, rows, b.codes[(k-1)*b.rowBytes:], b.rowBytes, b.scale)
	}
	var w [blockCols]float32
	p.decodeElems(w[:], k-1, k, colHi-blockCols, colHi)
	for r := 0; r < rows; r++ {
		if av := a[r*k+k-1]; av != 0 {
			o := out[r*outStride+n-blockCols : r*outStride+n]
			for j, wv := range w {
				o[j] += av * wv
			}
		}
	}
}

// mulVecAsm adds k code rows of nb blocks into out. Of 2- to 4-bit codes,
// eight activation rows take whole groups of four blocks through
// mulVec8AVX512, and one or two rows whole groups of eight through
// mulVec1AVX512 or mulVec2AVX512: one decoded code word feeds 16 lanes
// there, 8 in mulVecAVX2, which takes everything else, two rows at a time.
// Columns are independent sums, so where the blocks split changes no bit.
func (p *Packed) mulVecAsm(out []float32, outStride, nb int, a []float32, k, rows int, codes []byte, rowBytes int, scale []float32) {
	if useAVX512 && p.Bits <= 4 {
		var done int
		switch {
		case rows == 8 && nb >= 4:
			done = nb &^ 3
			mulVec8AVX512(&out[0], outStride*4, done, &a[0], p.Rows*4, k, &codes[0], rowBytes, &scale[0], p.Bits, &zLevels[p.Bits][0], &zShifts[p.Bits][0])
		case rows == 1 && nb >= 8:
			done = nb &^ 7
			mulVec1AVX512(&out[0], done, &a[0], k, &codes[0], rowBytes, &scale[0], p.Bits, &zLevels[p.Bits][0], &zShifts[p.Bits][0])
		case rows == 2 && nb >= 8:
			done = nb &^ 7
			mulVec2AVX512(&out[0], outStride*4, done, &a[0], p.Rows*4, k, &codes[0], rowBytes, &scale[0], p.Bits, &zLevels[p.Bits][0], &zShifts[p.Bits][0])
		}
		if done == nb {
			return
		}
		out, nb, codes, scale = out[done*blockCols:], nb-done, codes[done*p.Bits:], scale[done*blockCols:]
	}
	for r := 0; r < rows; r += 2 {
		mulVecAVX2(&out[r*outStride], outStride*4, nb, &a[r*p.Rows], p.Rows*4, k, min(rows-r, 2), &codes[0], rowBytes, &scale[0], p.Bits)
	}
}

// decodeSIMD is DecodeRowsInto through decodeAVX2 for a word-aligned tile.
func (p *Packed) decodeSIMD(dst []float32, rowLo, rowHi, colLo, colHi int) {
	rows, stride := rowHi-rowLo, colHi-colLo
	if rows <= 0 || stride == 0 {
		return
	}
	dst = dst[:rows*stride]
	b := p.simdBand(rowHi, colLo, colHi)
	codes := b.codes[rowLo*b.rowBytes:]
	if !b.short {
		decodeAVX2(&dst[0], stride*4, b.nb, rows, &codes[0], b.rowBytes, &b.scale[0], p.Bits)
		return
	}
	if rows > 1 {
		decodeAVX2(&dst[0], stride*4, b.nb, rows-1, &codes[0], b.rowBytes, &b.scale[0], p.Bits)
	}
	last := dst[(rows-1)*stride:]
	if b.nb > 1 {
		decodeAVX2(&last[0], stride*4, b.nb-1, 1, &codes[(rows-1)*b.rowBytes], b.rowBytes, &b.scale[0], p.Bits)
	}
	p.decodeElems(last[stride-blockCols:], rowHi-1, rowHi, colHi-blockCols, colHi)
}
