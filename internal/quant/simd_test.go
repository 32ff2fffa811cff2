package quant

import (
	"fmt"
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// simdSpecials are the float32s the kernels can treat differently from an
// ordinary number, as activations (both zeros are skipped, NaN is not) and
// as scales (a 0 activation against an Inf weight contributes nothing).
var simdSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32,
}

// sameFloats compares bit for bit, except that any NaN equals any NaN (which
// payload survives NaN + NaN depends on operand order, which the compiler
// chooses for the Go reference).
func sameFloats(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d: %x (%v), want %x (%v)", name, i, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// simdCase builds a uniform packed matrix out of random code bytes (every
// bit pattern is a code) whose Codes, Scale, activations and outputs all
// start off bytes/elements into their backing arrays and end exactly at
// their length, then compares the AVX2 MulVecInto and DecodeRowsInto with
// their Go twins on the band of blocks [bLo, bHi) and the rows [rLo, rows).
func simdCase(t *testing.T, seed int64, bits, rows, blocks, bLo, bHi, rLo, off int, special uint8) {
	t.Helper()
	if !useAVX2 {
		t.Skip("no AVX2 kernels in this process: the Go reference is the only path")
	}
	g := tensor.NewRNG(seed)
	cols := blocks * blockCols
	rowBytes := blocks * bits
	codes := make([]byte, off+rows*rowBytes)[off:]
	for i := range codes {
		codes[i] = byte(g.Intn(256))
	}
	p := &Packed{Bits: bits, Rows: rows, Cols: cols, Codes: codes, Scale: g.Normal(0, 0.1, 1, off+cols).Data[off:]}
	a := g.Normal(0, 1, 1, off+rows).Data[off:]
	for i := range a {
		if g.Intn(3) == 0 {
			a[i] = 0
		}
	}
	if special != 0 {
		step := 1 + int(special)%7
		for i := int(special) % 5; i < len(a); i += step {
			a[i] = simdSpecials[(i+int(special))%len(simdSpecials)]
		}
		for i := int(special) % 3; i < cols; i += step {
			p.Scale[i] = simdSpecials[(i+int(special)/2)%len(simdSpecials)]
		}
	}
	colLo, colHi := bLo*blockCols, bHi*blockCols
	name := fmt.Sprintf("%d-bit (%d,%d) cols [%d,%d) rows [%d,%d) off %d special %d", bits, rows, cols, colLo, colHi, rLo, rows, off, special)

	got := make([]float32, off+colHi-colLo)[off:]
	want := make([]float32, colHi-colLo)
	for i := range got {
		got[i] = float32(math.NaN()) // every element must be overwritten
	}
	p.mulVecSIMD(got, a, colLo, colHi)
	if !p.mulVecGo(want, a, colLo, colHi) {
		t.Fatalf("%s: no Go kernel for a word-aligned band", name)
	}
	sameFloats(t, "MulVecInto "+name, got, want)

	tile := (rows - rLo) * (colHi - colLo)
	gotTile := make([]float32, off+tile)[off:]
	wantTile := make([]float32, tile)
	p.decodeSIMD(gotTile, rLo, rows, colLo, colHi)
	p.decodeGo(wantTile, rLo, rows, colLo, colHi)
	sameFloats(t, "DecodeRowsInto "+name, gotTile, wantTile)
}

// TestPackedSIMDMatchesGo pins the assembly against its Go twins at every
// width it takes, on bands that do and do not end at the stream's last block
// (where a 2- or 3-bit row is shorter than the 4 bytes the kernel loads),
// quads of blocks and single ones, one row and many.
func TestPackedSIMDMatchesGo(t *testing.T) {
	for _, bits := range []int{2, 3, 4, 8} {
		for _, rows := range []int{1, 2, 37} {
			for _, blocks := range []int{1, 3, 4, 5, 9, 33} {
				seed := int64(bits*1000 + rows*10 + blocks)
				simdCase(t, seed, bits, rows, blocks, 0, blocks, 0, 0, 0)
				simdCase(t, seed, bits, rows, blocks, 0, blocks, rows-1, 1, uint8(seed))
				simdCase(t, seed, bits, rows, blocks, blocks/2, blocks, rows/2, 3, uint8(seed))
				simdCase(t, seed, bits, rows, blocks, 0, (blocks+1)/2, 0, 2, 0)
			}
		}
	}
}

// FuzzPackedSIMD lets the engine pick the width, the shape, the band, the
// base alignment and where the special values fall.
func FuzzPackedSIMD(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(36), uint8(8), uint8(0), uint8(8), uint8(0), uint8(0), uint8(0))  // 4-bit, whole matrix
	f.Add(int64(2), uint8(1), uint8(0), uint8(4), uint8(0), uint8(4), uint8(0), uint8(1), uint8(9))   // 3-bit, one row: the short word
	f.Add(int64(3), uint8(0), uint8(63), uint8(6), uint8(2), uint8(3), uint8(5), uint8(3), uint8(77)) // 2-bit, inner band
	f.Add(int64(4), uint8(3), uint8(9), uint8(11), uint8(1), uint8(9), uint8(2), uint8(2), uint8(0))  // 8-bit
	f.Fuzz(func(t *testing.T, seed int64, width, rowsRaw, blocksRaw, loRaw, nRaw, rLoRaw, off, special uint8) {
		bits := []int{2, 3, 4, 8}[width%4]
		rows, blocks := 1+int(rowsRaw)%70, 1+int(blocksRaw)%40
		bLo := int(loRaw) % blocks
		bHi := bLo + 1 + int(nRaw)%(blocks-bLo)
		simdCase(t, seed, bits, rows, blocks, bLo, bHi, int(rLoRaw)%rows, int(off)%8, special)
	})
}
