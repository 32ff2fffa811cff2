package quant

import (
	"fmt"
	"math"
	"testing"

	"edgellm/internal/tensor"
)

func randWeights(rows, cols int, seed int64) *tensor.Tensor {
	return tensor.NewRNG(seed).Normal(0, 0.5, rows, cols)
}

// refReadBits is the original bit-by-bit extractor, kept as the oracle
// for the word-wise rewrite.
func refReadBits(buf []byte, pos, width int) byte {
	var code byte
	for i := 0; i < width; i++ {
		if buf[(pos+i)/8]&(1<<((pos+i)%8)) != 0 {
			code |= 1 << i
		}
	}
	return code
}

func TestWordWiseBitsMatchBitLoop(t *testing.T) {
	for width := 2; width <= 8; width++ {
		n := 101 // odd element count: the tail straddles arbitrarily
		buf := make([]byte, (n*width+7)/8)
		g := tensor.NewRNG(int64(width))
		codes := make([]byte, n)
		for i := range codes {
			codes[i] = byte(g.Intn(1 << width))
			writeBits(buf, i*width, width, codes[i])
		}
		for i, want := range codes {
			if got := readBits(buf, i*width, width); got != want {
				t.Fatalf("width %d element %d: readBits %x, want %x", width, i, got, want)
			}
			if got := refReadBits(buf, i*width, width); got != want {
				t.Fatalf("width %d element %d: writeBits wrote %x per bit-loop oracle, want %x", width, i, got, want)
			}
		}
	}
}

// refDecode is the decode oracle, independent of every production decode
// path: the bit-loop extractor, then the format's defining expression.
func refDecode(p *Packed, r, c int) float32 {
	code := refReadBits(p.Codes, (r*p.Cols+c)*p.Bits, p.Bits)
	q := int32(code)
	if q >= 1<<(p.Bits-1) {
		q -= 1 << p.Bits
	}
	return float32(q) * p.Scale[c]
}

// TestDecodeRowsIntoMatchesUnpack pins the tile decoder, and Unpack with
// it, against the bit-loop oracle, bitwise, for every width. The 53-wide
// matrix has no word-aligned tile (odd column offsets hit the generic
// straddles); the 56-wide one takes the word path on whole-block tiles —
// one block, several, the last (whose final rows load a short word) — and
// the per-element path on tiles cut inside a block.
func TestDecodeRowsIntoMatchesUnpack(t *testing.T) {
	for _, cols := range []int{53, 56} {
		w := randWeights(37, cols, 7)
		variants := map[string]*Packed{}
		for bits := 2; bits <= 8; bits++ {
			variants[fmt.Sprintf("uniform%d", bits)] = Pack(w, bits)
		}
		tiles := [][4]int{
			{0, 37, 0, cols}, // full matrix
			{0, 1, 0, 1},
			{3, 19, 5, 24}, // odd offsets both ways
			{36, 37, cols - 1, cols},
			{10, 11, 1, cols}, // single row, odd start
			{0, 37, 8, 16},    // one column block, full height: the kernels' tile
			{5, 30, 16, 48},   // several blocks
			{0, 37, 48, 56},   // the last block of the 56-wide matrix
			{0, 37, 8, 20},    // starts on a block, ends inside one
		}
		for name, p := range variants {
			full := p.Unpack()
			for i, got := range full.Data {
				if want := refDecode(p, i/cols, i%cols); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s cols %d Unpack at (%d,%d): %v != %v", name, cols, i/cols, i%cols, got, want)
				}
			}
			for _, tile := range tiles {
				rl, rh, cl, ch := tile[0], tile[1], tile[2], min(tile[3], cols)
				dst := make([]float32, (rh-rl)*(ch-cl))
				for i := range dst {
					dst[i] = float32(math.NaN()) // decode must overwrite every slot
				}
				p.DecodeRowsInto(dst, rl, rh, cl, ch)
				for r := rl; r < rh; r++ {
					for c := cl; c < ch; c++ {
						got := dst[(r-rl)*(ch-cl)+(c-cl)]
						want := refDecode(p, r, c)
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s cols %d tile %v at (%d,%d): %v != %v", name, cols, tile, r, c, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPackDenormalColumn pins the scale-underflow guard: a column whose
// absmax is a denormal can see its float32 scale underflow to 0 when
// divided by qmax (bits ≥ 3). Codes must then come out zero — never a
// division by the zero scale — and every decode stays bounded by the
// column's absmax. A zero column always decodes to exactly 0.
func TestPackDenormalColumn(t *testing.T) {
	denorm := math.Float32frombits(1) // smallest positive denormal
	w := tensor.New(4, 3)
	for r := 0; r < 4; r++ {
		w.Set(r, 0, float32(r)-1.5)
		w.Set(r, 1, denorm)
		w.Set(r, 2, 0)
	}
	for bits := 2; bits <= 8; bits++ {
		p := Pack(w, bits)
		u := p.Unpack()
		for r := 0; r < 4; r++ {
			if v := u.At(r, 1); math.IsNaN(float64(v)) || v < 0 || v > denorm {
				t.Fatalf("bits %d: denormal column row %d decodes to %v, want within [0,%v]", bits, r, v, denorm)
			}
			if v := u.At(r, 2); v != 0 {
				t.Fatalf("bits %d: zero column row %d decodes to %v, want 0", bits, r, v)
			}
		}
		if u.At(0, 0) >= 0 || u.At(3, 0) <= 0 {
			t.Fatalf("bits %d: healthy column lost its signs: %v, %v", bits, u.At(0, 0), u.At(3, 0))
		}
	}
}

func TestPackedStorageBytesAnalytic(t *testing.T) {
	for _, sh := range [][2]int{{64, 32}, {37, 53}, {1, 1}} {
		w := randWeights(sh[0], sh[1], 3)
		for bits := 2; bits <= 8; bits++ {
			p := Pack(w, bits)
			if got, want := p.StorageBytes(), PackedStorageBytes(sh[0], sh[1], bits); got != want {
				t.Fatalf("(%d,%d)@%db: StorageBytes %d, analytic %d", sh[0], sh[1], bits, got, want)
			}
		}
	}
}
