package quant

import (
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// FuzzPackRoundTrip fuzzes Pack/Unpack over bits ∈ [2,8], odd shapes, and
// degenerate (zero / denormal / huge) columns, checking the invariants the
// fused kernels and the memory accounting rely on:
//
//  1. DecodeRowsInto tiles are bitwise identical to Unpack.
//  2. Reconstruction error is bounded by half a quantization step per
//     element (plus underflow slack for denormal columns).
//  3. StorageBytes matches the analytic accounting.
func FuzzPackRoundTrip(f *testing.F) {
	f.Add(uint8(4), uint8(16), uint8(16), int64(1), uint8(0))
	f.Add(uint8(2), uint8(1), uint8(1), int64(2), uint8(0))
	f.Add(uint8(3), uint8(37), uint8(53), int64(3), uint8(1))
	f.Add(uint8(8), uint8(64), uint8(3), int64(4), uint8(2))
	f.Add(uint8(5), uint8(7), uint8(65), int64(5), uint8(3))
	f.Add(uint8(6), uint8(33), uint8(31), int64(6), uint8(4))
	f.Add(uint8(2), uint8(23), uint8(15), int64(64), uint8(0)) // 4-bit, 24×16: the word path
	f.Add(uint8(1), uint8(9), uint8(13), int64(20), uint8(1))  // 3-bit, a zero column, ragged
	f.Fuzz(func(t *testing.T, bitsRaw, rowsRaw, colsRaw uint8, seed int64, flags uint8) {
		bits := 2 + int(bitsRaw)%7
		rows := 1 + int(rowsRaw)%64
		cols := 1 + int(colsRaw)%64
		w := tensor.NewRNG(seed).Normal(0, 1, rows, cols)
		if flags&1 != 0 { // zero column
			for r := 0; r < rows; r++ {
				w.Set(r, 0, 0)
			}
		}
		if flags&2 != 0 { // denormal column
			d := math.Float32frombits(uint32(1 + seed&0xff))
			for r := 0; r < rows; r++ {
				w.Set(r, cols-1, d)
			}
		}
		if flags&4 != 0 { // huge magnitudes
			for i := range w.Data {
				w.Data[i] *= 1e30
			}
		}

		p := Pack(w, bits)
		u := p.Unpack()
		qmax := float64(int(1)<<(bits-1)) - 1
		// Error bound: half a step + float32 rounding slack, or pure
		// underflow loss when the column's scale collapsed to zero.
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c++ {
				diff := math.Abs(float64(u.At(r, c)) - float64(w.At(r, c)))
				s := float64(p.Scale[c])
				bound := 0.51*s + 1e-38
				if s == 0 {
					bound = qmax * 1.5e-45 // absMax small enough to underflow
				}
				if math.IsNaN(diff) || diff > bound {
					t.Fatalf("bits %d (%d,%d): |%v - %v| = %v exceeds bound %v (scale %v)",
						bits, r, c, u.At(r, c), w.At(r, c), diff, bound, s)
				}
			}
		}

		// Tile decode == Unpack, bitwise, on a shape-dependent sub-tile.
		rl, rh := rows/3, rows/3+1+(rows-rows/3-1)/2
		cl, ch := cols/4, cols/4+1+(cols-cols/4-1)/2
		dst := make([]float32, (rh-rl)*(ch-cl))
		p.DecodeRowsInto(dst, rl, rh, cl, ch)
		for r := rl; r < rh; r++ {
			for c := cl; c < ch; c++ {
				got := dst[(r-rl)*(ch-cl)+(c-cl)]
				if math.Float32bits(got) != math.Float32bits(u.At(r, c)) {
					t.Fatalf("bits %d tile (%d,%d): decode %v != unpack %v", bits, r, c, got, u.At(r, c))
				}
			}
		}

		if got, want := p.StorageBytes(), PackedStorageBytes(rows, cols, bits); got != want {
			t.Fatalf("StorageBytes %d, analytic %d", got, want)
		}
	})
}
