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
		Codes:    make([]byte, (n*s.Bits+7)/8),
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

// DecodeRowsInto implements tensor.PackedMat: codebook lookup times the
// element's block scale, bitwise identical to Unpack.
func (p *PackedNF) DecodeRowsInto(dst []float32, rowLo, rowHi, colLo, colHi int) {
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
