package quant

import (
	"sort"

	"edgellm/internal/tensor"
)

// PackedNF is the executable form of an NFScheme-quantized rank-2 tensor:
// bit-packed codebook indices plus one float32 absmax scale per block
// (blocks run over the flattened row-major data, exactly as
// NFScheme.FakeQuant scans it). Dequantized values equal FakeQuant's
// output, so swapping a fake-quantized weight for its PackedNF form
// cannot change results. Implements tensor.PackedMat.
type PackedNF struct {
	Bits      int
	Rows      int
	Cols      int
	BlockSize int       // normalized: 1..Rows*Cols
	Codes     []byte    // ceil(Rows*Cols*Bits/8) bytes, row-major bit stream
	Scale     []float32 // one absmax per block

	// codebook is NFScheme.Codebook: 2^Bits − 1 entries, so the all-ones
	// code is not an index. PackNF and ReadPackedFrom both set it and the
	// latter rejects that code: decoding only reads.
	codebook []float32
}

// PackNF quantizes t (rank-2) with the NF codebook scheme and packs the
// code indices into a bit stream.
func PackNF(t *tensor.Tensor, s NFScheme) *PackedNF {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	rows, cols := t.Rows(), t.Cols()
	n := rows * cols
	block := s.BlockSize
	if block <= 0 || block > n {
		block = n
	}
	codes := s.Codebook()
	zeroIdx := len(codes) / 2 // the codebook's exact-zero entry
	p := &PackedNF{
		Bits: s.Bits, Rows: rows, Cols: cols, BlockSize: block,
		Codes:    make([]byte, codeBytes(rows, cols, s.Bits)),
		Scale:    make([]float32, (n+block-1)/block),
		codebook: codes,
	}
	for start := 0; start < n; start += block {
		end := min(start+block, n)
		var absMax float32
		for _, v := range t.Data[start:end] {
			if v < 0 {
				v = -v
			}
			if v > absMax {
				absMax = v
			}
		}
		p.Scale[start/block] = absMax
		for i := start; i < end; i++ {
			ci := zeroIdx
			if absMax != 0 {
				ci = nearestCodeIdx(t.Data[i]/absMax, codes)
			}
			writeBits(p.Codes, i*s.Bits, s.Bits, byte(ci))
		}
	}
	return p
}

// Dims implements tensor.PackedMat.
func (p *PackedNF) Dims() (int, int) { return p.Rows, p.Cols }

// wordAligned is the uniform format's test plus one condition of NF's own:
// scale blocks must be whole multiples of 8 elements, so that the eight
// columns of a block row — flat elements 8i … 8i+7 — share one scale. (An
// empty matrix has BlockSize 0 and nothing to decode.)
func (p *PackedNF) wordAligned(colLo, colHi int) bool {
	return p.BlockSize >= blockCols && p.BlockSize%blockCols == 0 && wordAligned(p.Cols, colLo, colHi)
}

// scaleCursor walks the scale index of one column block down the rows:
// the flat index grows by Cols a row, tracked as quotient and remainder
// of BlockSize so the row loop never divides.
type scaleCursor struct {
	idx, rem          int
	dIdx, dRem, block int
}

func (p *PackedNF) cursorAt(row, col int) scaleCursor {
	flat := row*p.Cols + col
	return scaleCursor{
		idx: flat / p.BlockSize, rem: flat % p.BlockSize,
		dIdx: p.Cols / p.BlockSize, dRem: p.Cols % p.BlockSize, block: p.BlockSize,
	}
}

func (c *scaleCursor) nextRow() {
	c.idx += c.dIdx
	if c.rem += c.dRem; c.rem >= c.block {
		c.rem -= c.block
		c.idx++
	}
}

// decodeBlocksNF is DecodeRowsInto for a word-aligned tile at width W. The
// scale varies by row, not by column, so the table is the codebook itself
// and each lookup is multiplied by the row's scale: the same product, in
// the same order, as the per-element decode.
func decodeBlocksNF[W width](p *PackedNF, dst []float32, rowLo, rowHi, colLo, colHi int) {
	var z W
	bits := uint(len(z))
	mask := uint64(1<<bits - 1)
	var cb [16]float32
	copy(cb[:], p.codebook)
	codes, stride := p.Codes, colHi-colLo
	rowBytes := p.Cols / blockCols * int(bits)
	for c := colLo; c < colHi; c += blockCols {
		off := rowLo*rowBytes + c/blockCols*int(bits)
		sc := p.cursorAt(rowLo, c)
		for i := c - colLo; i < (rowHi-rowLo)*stride; i += stride {
			w, s := loadWord(codes, off), p.Scale[sc.idx]
			off += rowBytes
			sc.nextRow()
			t := (*[blockCols]float32)(dst[i:])
			t[0] = cb[w&mask] * s
			t[1] = cb[w>>bits&mask] * s
			t[2] = cb[w>>(2*bits)&mask] * s
			t[3] = cb[w>>(3*bits)&mask] * s
			t[4] = cb[w>>(4*bits)&mask] * s
			t[5] = cb[w>>(5*bits)&mask] * s
			t[6] = cb[w>>(6*bits)&mask] * s
			t[7] = cb[w>>(7*bits)&mask] * s
		}
	}
}

// mulVecBlocksNF is MulVecInto at width W: decodeBlocksNF's products feed
// the eight running sums directly.
func mulVecBlocksNF[W width](p *PackedNF, out, a []float32, colLo, colHi int) {
	var z W
	bits := uint(len(z))
	mask := uint64(1<<bits - 1)
	var cb [16]float32
	copy(cb[:], p.codebook)
	codes := p.Codes
	rowBytes := p.Cols / blockCols * int(bits)
	for c := colLo; c < colHi; c += blockCols {
		off := c / blockCols * int(bits)
		sc := p.cursorAt(0, c)
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for _, av := range a {
			w, s := loadWord(codes, off), p.Scale[sc.idx]
			off += rowBytes
			sc.nextRow()
			if av == 0 {
				continue
			}
			s0 += av * (cb[w&mask] * s)
			s1 += av * (cb[w>>bits&mask] * s)
			s2 += av * (cb[w>>(2*bits)&mask] * s)
			s3 += av * (cb[w>>(3*bits)&mask] * s)
			s4 += av * (cb[w>>(4*bits)&mask] * s)
			s5 += av * (cb[w>>(5*bits)&mask] * s)
			s6 += av * (cb[w>>(6*bits)&mask] * s)
			s7 += av * (cb[w>>(7*bits)&mask] * s)
		}
		o := (*[blockCols]float32)(out[c-colLo:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// MulVecInto implements tensor.PackedMat.
func (p *PackedNF) MulVecInto(out, a []float32, colLo, colHi int) bool {
	if !p.wordAligned(colLo, colHi) {
		return false
	}
	switch p.Bits {
	case 2:
		mulVecBlocksNF[[2]struct{}](p, out, a, colLo, colHi)
	case 3:
		mulVecBlocksNF[[3]struct{}](p, out, a, colLo, colHi)
	case 4:
		mulVecBlocksNF[[4]struct{}](p, out, a, colLo, colHi)
	default:
		return false
	}
	return true
}

// DecodeRowsInto implements tensor.PackedMat: codebook lookup times the
// element's block scale, bitwise identical to Unpack. A word-aligned tile
// of 2–4-bit codes decodes through decodeBlocksNF, anything else per
// element.
func (p *PackedNF) DecodeRowsInto(dst []float32, rowLo, rowHi, colLo, colHi int) {
	if p.wordAligned(colLo, colHi) {
		switch p.Bits {
		case 2:
			decodeBlocksNF[[2]struct{}](p, dst, rowLo, rowHi, colLo, colHi)
			return
		case 3:
			decodeBlocksNF[[3]struct{}](p, dst, rowLo, rowHi, colLo, colHi)
			return
		case 4:
			decodeBlocksNF[[4]struct{}](p, dst, rowLo, rowHi, colLo, colHi)
			return
		}
	}
	w := colHi - colLo
	cb := p.codebook
	bits, block := p.Bits, p.BlockSize
	for r := rowLo; r < rowHi; r++ {
		base := r*p.Cols + colLo
		pos := base * bits
		drow := dst[(r-rowLo)*w : (r-rowLo)*w+w]
		for c := range drow {
			code := readBits(p.Codes, pos, bits)
			pos += bits
			drow[c] = cb[code] * p.Scale[(base+c)/block]
		}
	}
}

// Unpack reconstructs the dequantized tensor; equal to
// NFScheme.FakeQuant of the original (zero blocks decode to +0).
func (p *PackedNF) Unpack() *tensor.Tensor {
	out := tensor.New(p.Rows, p.Cols)
	p.DecodeRowsInto(out.Data, 0, p.Rows, 0, p.Cols)
	return out
}

// StorageBytes returns the bytes held by the packed representation
// (codes + block scales + the dequantization codebook).
func (p *PackedNF) StorageBytes() int64 {
	return int64(len(p.Codes)) + int64(len(p.Scale))*4 + int64(len(p.codebook))*4
}

// nearestCodeIdx binary-searches the sorted codebook for the index of the
// closest entry (ties toward the lower code, matching nearestCode).
func nearestCodeIdx(v float32, codes []float32) int {
	i := sort.Search(len(codes), func(i int) bool { return codes[i] >= v })
	if i == 0 {
		return 0
	}
	if i == len(codes) {
		return len(codes) - 1
	}
	if v-codes[i-1] <= codes[i]-v {
		return i - 1
	}
	return i
}
