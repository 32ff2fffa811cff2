package quant

import "edgellm/internal/tensor"

// useAVX2 follows the tensor kernels: one CPUID read, in tensor, decides for
// both packages.
var useAVX2 = tensor.KernelPath() == "avx2"

//go:noescape
func mulVecAVX2(out *float32, nBlocks int, a *float32, k int, codes *byte, rowBytes int, scale *float32, bits int)

//go:noescape
func decodeAVX2(dst *float32, dstStride int, nBlocks int, rows int, codes *byte, rowBytes int, scale *float32, bits int)

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

// mulVecSIMD is MulVecInto through mulVecAVX2: the sums accumulate in out,
// so the one block row the assembly may not load joins them in Go, in the
// same ascending-k position — the last.
func (p *Packed) mulVecSIMD(out, a []float32, colLo, colHi int) {
	k := p.Rows
	out = out[:colHi-colLo]
	clear(out)
	if k == 0 || len(out) == 0 {
		return
	}
	a = a[:k]
	b := p.simdBand(k, colLo, colHi)
	if !b.short {
		mulVecAVX2(&out[0], b.nb, &a[0], k, &b.codes[0], b.rowBytes, &b.scale[0], p.Bits)
		return
	}
	if k > 1 {
		mulVecAVX2(&out[0], b.nb, &a[0], k-1, &b.codes[0], b.rowBytes, &b.scale[0], p.Bits)
	}
	if b.nb > 1 {
		mulVecAVX2(&out[0], b.nb-1, &a[k-1], 1, &b.codes[(k-1)*b.rowBytes], b.rowBytes, &b.scale[0], p.Bits)
	}
	if av := a[k-1]; av != 0 {
		var w [blockCols]float32
		p.decodeElems(w[:], k-1, k, colHi-blockCols, colHi)
		for j, wv := range w {
			out[len(out)-blockCols+j] += av * wv
		}
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
