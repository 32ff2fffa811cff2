package quant

import (
	"encoding/binary"
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// Packed is a real integer-packed representation of a quantized rank-2
// tensor: sub-byte signed codes are bit-packed contiguously, one scale per
// column, and element (r, c) decodes to float32(code)·Scale[c]. It is the
// one format LUC's uniform widths execute in: Packed implements
// tensor.PackedMat, so a matmul can consume the bit stream directly with no
// float32 weight materialization.
type Packed struct {
	Bits  int
	Rows  int
	Cols  int
	Codes []byte    // ceil(Rows*Cols*Bits/8) bytes, row-major bit stream
	Scale []float32 // one per column
}

// Pack quantizes t (rank-2) symmetrically per channel at the given width
// and packs the signed codes into a bit stream. The absMax scan and the
// quantize-encode pass are both single row-major sweeps over t's storage
// (the obvious per-column loop strides by Cols and thrashes the cache;
// BenchmarkPack pins the difference).
func Pack(t *tensor.Tensor, bits int) *Packed {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("quant: Pack bits %d out of [2,8]", bits))
	}
	rows, cols := t.Rows(), t.Cols()
	p := &Packed{
		Bits: bits, Rows: rows, Cols: cols,
		Codes: make([]byte, codeBytes(rows, cols, bits)),
		Scale: make([]float32, cols),
	}
	qmax := float64(int(1)<<(bits-1)) - 1
	absMax := make([]float32, cols)
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			if v < 0 {
				v = -v
			}
			if v > absMax[c] {
				absMax[c] = v
			}
		}
	}
	for c, a := range absMax {
		if a == 0 {
			continue
		}
		p.Scale[c] = float32(float64(a) / qmax)
	}
	bit := 0
	mask := byte((1 << bits) - 1)
	for r := 0; r < rows; r++ {
		row := t.Data[r*cols : (r+1)*cols]
		for c, v := range row {
			var q int
			// Guard on the stored float32 scale, not absMax: a denormal
			// column can have absMax > 0 yet underflow to scale 0, and
			// dividing by that zero must not poison the codes.
			if s := p.Scale[c]; s != 0 {
				q = int(math.Round(float64(v) / float64(s)))
				if q > int(qmax) {
					q = int(qmax)
				}
				if q < -int(qmax) {
					q = -int(qmax)
				}
			}
			code := byte(q) & mask // two's-complement truncated to bits
			writeBits(p.Codes, bit, bits, code)
			bit += bits
		}
	}
	return p
}

// Dims implements tensor.PackedMat.
func (p *Packed) Dims() (int, int) { return p.Rows, p.Cols }

// level is the unscaled value of a code: the code sign-extended.
func (p *Packed) level(code int) float32 {
	if code >= 1<<(p.Bits-1) {
		code -= 1 << p.Bits
	}
	return float32(code)
}

// blockCols is the column-block width of the word path; see
// tensor.PackedBlockCols.
const blockCols = tensor.PackedBlockCols

// wordAligned reports whether columns [colLo, colHi) are whole 8-column
// blocks whose every row starts on a byte: a b-bit row of such a block is
// exactly b bytes, one word load.
func (p *Packed) wordAligned(colLo, colHi int) bool {
	return p.Cols%blockCols == 0 && colLo%blockCols == 0 && (colHi-colLo)%blockCols == 0
}

// simd reports whether the AVX2 twins of the word-path kernels take p: a
// block row has to fit one 32-bit lane (2–4 bits) or be whole bytes (8).
func (p *Packed) simd() bool {
	return useAVX2 && (p.Bits <= 4 || p.Bits == 8)
}

// loadWord returns the code bytes at off as a little-endian word: eight of
// them where the stream has eight left, else what remains, zero-extended.
// A block row is at most 8 bytes, so the word always holds all of it.
func loadWord(codes []byte, off int) uint64 {
	tail := codes[off:]
	if len(tail) >= 8 {
		return binary.LittleEndian.Uint64(tail)
	}
	var w uint64
	for i := len(tail) - 1; i >= 0; i-- {
		w = w<<8 | uint64(tail[i])
	}
	return w
}

// width tags a word-path kernel with the code width it is compiled for:
// the array length is the width. The kernels are generic over it for one
// reason — each instantiation then extracts its eight codes with constant
// shift counts. A variable count is three µops on amd64 below GOAMD64=v3,
// which made the 4-bit kernel a third slower (455 against 336 µs at 768²).
// Widths 5–7 (no LUC candidate) stay on the per-element decode.
type width interface {
	[2]struct{} | [3]struct{} | [4]struct{}
}

// blockTable is one column block's dequantization table: entry code·8+j is
// level(code)·Scale[colLo+j], exactly the per-element decode's product.
// 2^bits rows are in use; the array is sized for 4 bits.
type blockTable [16 * blockCols]float32

func (p *Packed) fillBlockTable(d *blockTable, colLo int) {
	colScale := p.Scale[colLo : colLo+blockCols]
	for code := 0; code < 1<<p.Bits; code++ {
		lv := p.level(code)
		row := d[code*blockCols : (code+1)*blockCols]
		for j, s := range colScale {
			row[j] = lv * s
		}
	}
}

// decodeBlocks is DecodeRowsInto for a word-aligned tile at width W, one
// column block at a time: a table per block, then per row one word load
// and eight lookups. mask selects a code pre-multiplied by the table's row
// width, from a word shifted left by 3 to match.
func decodeBlocks[W width](p *Packed, dst []float32, rowLo, rowHi, colLo, colHi int) {
	var z W
	bits := uint(len(z))
	mask := uint64(blockCols<<bits - blockCols)
	var d blockTable
	codes, stride := p.Codes, colHi-colLo
	rowBytes := p.Cols / blockCols * int(bits)
	for c := colLo; c < colHi; c += blockCols {
		p.fillBlockTable(&d, c)
		off := rowLo*rowBytes + c/blockCols*int(bits)
		for i := c - colLo; i < (rowHi-rowLo)*stride; i += stride {
			w := loadWord(codes, off) << 3
			off += rowBytes
			t := (*[blockCols]float32)(dst[i:])
			t[0] = d[w&mask]
			t[1] = d[w>>bits&mask+1]
			t[2] = d[w>>(2*bits)&mask+2]
			t[3] = d[w>>(3*bits)&mask+3]
			t[4] = d[w>>(4*bits)&mask+4]
			t[5] = d[w>>(5*bits)&mask+5]
			t[6] = d[w>>(6*bits)&mask+6]
			t[7] = d[w>>(7*bits)&mask+7]
		}
	}
}

// mulVecBlocks is MulVecInto at width W: decodeBlocks' products feed the
// eight running sums directly, so a decoded weight never leaves a
// register.
func mulVecBlocks[W width](p *Packed, out, a []float32, colLo, colHi int) {
	var z W
	bits := uint(len(z))
	mask := uint64(blockCols<<bits - blockCols)
	var d blockTable
	codes := p.Codes
	rowBytes := p.Cols / blockCols * int(bits)
	for c := colLo; c < colHi; c += blockCols {
		p.fillBlockTable(&d, c)
		off := c / blockCols * int(bits)
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for _, av := range a {
			w := loadWord(codes, off) << 3
			off += rowBytes
			if av == 0 {
				continue
			}
			s0 += av * d[w&mask]
			s1 += av * d[w>>bits&mask+1]
			s2 += av * d[w>>(2*bits)&mask+2]
			s3 += av * d[w>>(3*bits)&mask+3]
			s4 += av * d[w>>(4*bits)&mask+4]
			s5 += av * d[w>>(5*bits)&mask+5]
			s6 += av * d[w>>(6*bits)&mask+6]
			s7 += av * d[w>>(7*bits)&mask+7]
		}
		o := (*[blockCols]float32)(out[c-colLo:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// mulVecBytes is MulVecInto for 8-bit codes: a block row is eight
// bytes, each converted and scaled on the way into its sum. (A 256-row
// table would cost more to build per block than it saves below k ≈ 400.)
func (p *Packed) mulVecBytes(out, a []float32, colLo, colHi int) {
	for c := colLo; c < colHi; c += blockCols {
		sc := (*[blockCols]float32)(p.Scale[c:])
		off := c
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for _, av := range a {
			q := (*[blockCols]byte)(p.Codes[off:])
			off += p.Cols
			if av == 0 {
				continue
			}
			s0 += av * (float32(int8(q[0])) * sc[0])
			s1 += av * (float32(int8(q[1])) * sc[1])
			s2 += av * (float32(int8(q[2])) * sc[2])
			s3 += av * (float32(int8(q[3])) * sc[3])
			s4 += av * (float32(int8(q[4])) * sc[4])
			s5 += av * (float32(int8(q[5])) * sc[5])
			s6 += av * (float32(int8(q[6])) * sc[6])
			s7 += av * (float32(int8(q[7])) * sc[7])
		}
		o := (*[blockCols]float32)(out[c-colLo:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
}

// MulVecInto implements tensor.PackedMat. One and two rows take the AVX2
// kernel, which decodes each code word once for both rows, or on an AVX-512
// host, for 2- to 4-bit codes, its 16-lane one- and two-row twins; eight
// rows of 2- to 4-bit codes take the AVX-512 kernel that decodes each word
// once for all eight (DESIGN.md §6, "Eight rows, one decode"). Where only
// the Go kernels could
// serve them, one row at a time, decoding a tile once and sweeping it is
// faster (DESIGN.md §6, "Two rows, one decode"), so two rows report false
// there and go through tiles, as eight do wherever the AVX-512 kernel is
// not.
func (p *Packed) MulVecInto(out []float32, outStride int, a []float32, rows, colLo, colHi int) bool {
	switch {
	case !p.wordAligned(colLo, colHi):
		return false
	case rows == 8 && !(useAVX512 && p.Bits <= 4):
		return false
	case p.simd() && (rows <= 2 || rows == 8):
		p.mulVecSIMD(out, outStride, a, rows, colLo, colHi)
		return true
	case rows == 1:
		return p.mulVecGo(out, a[:p.Rows], colLo, colHi)
	}
	return false
}

// mulVecGo is MulVecInto's reference for a word-aligned band, and the
// kernel wherever the AVX2 one is not.
func (p *Packed) mulVecGo(out, a []float32, colLo, colHi int) bool {
	switch p.Bits {
	case 2:
		mulVecBlocks[[2]struct{}](p, out, a, colLo, colHi)
	case 3:
		mulVecBlocks[[3]struct{}](p, out, a, colLo, colHi)
	case 4:
		mulVecBlocks[[4]struct{}](p, out, a, colLo, colHi)
	case 8:
		p.mulVecBytes(out, a, colLo, colHi)
	default:
		return false
	}
	return true
}

// DecodeRowsInto implements tensor.PackedMat: it dequantizes the tile
// rows [rowLo,rowHi) × cols [colLo,colHi) into dst, row-major with stride
// colHi-colLo, bitwise identical to the same elements of Unpack. A
// word-aligned tile of 2–4-bit codes decodes through decodeBlocks; anything
// else — widths 5–8, a matrix whose width is not a multiple of 8, a tile
// cut inside a block — decodes per element through the two-byte-window
// extractor.
func (p *Packed) DecodeRowsInto(dst []float32, rowLo, rowHi, colLo, colHi int) {
	if p.simd() && p.wordAligned(colLo, colHi) {
		p.decodeSIMD(dst, rowLo, rowHi, colLo, colHi)
		return
	}
	p.decodeGo(dst, rowLo, rowHi, colLo, colHi)
}

// decodeGo is DecodeRowsInto's reference, and the decoder wherever the AVX2
// one is not.
func (p *Packed) decodeGo(dst []float32, rowLo, rowHi, colLo, colHi int) {
	if p.wordAligned(colLo, colHi) {
		switch p.Bits {
		case 2:
			decodeBlocks[[2]struct{}](p, dst, rowLo, rowHi, colLo, colHi)
			return
		case 3:
			decodeBlocks[[3]struct{}](p, dst, rowLo, rowHi, colLo, colHi)
			return
		case 4:
			decodeBlocks[[4]struct{}](p, dst, rowLo, rowHi, colLo, colHi)
			return
		}
	}
	p.decodeElems(dst, rowLo, rowHi, colLo, colHi)
}

// decodeElems decodes a tile one element at a time, level(code)·Scale[c]
// through the two-byte-window extractor: any width, any alignment, the
// reference every other decode matches.
func (p *Packed) decodeElems(dst []float32, rowLo, rowHi, colLo, colHi int) {
	w := colHi - colLo
	for r := rowLo; r < rowHi; r++ {
		base := r*p.Cols + colLo
		drow := dst[(r-rowLo)*w : (r-rowLo)*w+w]
		for c := range drow {
			code := readBits(p.Codes, (base+c)*p.Bits, p.Bits)
			drow[c] = p.level(int(code)) * p.Scale[colLo+c]
		}
	}
}

// Unpack reconstructs the dequantized tensor.
func (p *Packed) Unpack() *tensor.Tensor {
	out := tensor.New(p.Rows, p.Cols)
	p.DecodeRowsInto(out.Data, 0, p.Rows, 0, p.Cols)
	return out
}

// StorageBytes returns the bytes held by the packed representation
// (codes + scales).
func (p *Packed) StorageBytes() int64 {
	return int64(len(p.Codes)) + int64(len(p.Scale))*4
}

// PackedStorageBytes is the analytic size of a Packed matrix for a
// (rows × cols) matrix at the given width, without materializing it:
// bit-packed codes plus one float32 scale per column. It matches
// Packed.StorageBytes exactly, which is what lets govern's admission
// estimators price a bit budget in the executable format's real bytes.
func PackedStorageBytes(rows, cols, bits int) int64 {
	return packedCodeBytes(int64(rows), int64(cols), bits) + int64(cols)*4
}

// packedCodeBytes is the length of a rows × cols bit stream at the given
// width, in int64: the bit count of a shape that is only being priced need
// not fit a 32-bit int.
func packedCodeBytes(rows, cols int64, bits int) int64 {
	return (rows*cols*int64(bits) + 7) / 8
}

// codeBytes is packedCodeBytes for a matrix about to be packed. Bit offsets
// into the stream are ints, so a matrix whose bit count is not one (2^28
// elements at 8 bits on a 32-bit platform) cannot be packed there.
func codeBytes(rows, cols, bits int) int {
	n := packedCodeBytes(int64(rows), int64(cols), bits)
	if n > math.MaxInt/8 {
		panic(fmt.Sprintf("quant: a (%d,%d) matrix at %d bits is too large to address on this platform", rows, cols, bits))
	}
	return int(n)
}

// writeBits stores the low `width` bits of code at bit offset `pos`
// (LSB-first within each byte). width must be ≤ 8, so a code spans at
// most two bytes; the straddling byte is written word-wise, not
// bit-by-bit.
func writeBits(buf []byte, pos, width int, code byte) {
	v := uint32(code) & (1<<width - 1)
	i := pos >> 3
	shift := uint(pos & 7)
	buf[i] |= byte(v << shift)
	if int(shift)+width > 8 {
		buf[i+1] |= byte(v >> (8 - shift))
	}
}

// readBits extracts `width` ≤ 8 bits starting at bit offset `pos` with a
// two-byte window read. When the code straddles a byte boundary more bits
// follow it in the stream, so buf[i+1] is always in bounds.
func readBits(buf []byte, pos, width int) byte {
	i := pos >> 3
	shift := uint(pos & 7)
	v := uint32(buf[i])
	if int(shift)+width > 8 {
		v |= uint32(buf[i+1]) << 8
	}
	return byte(v>>shift) & byte(1<<width-1)
}
