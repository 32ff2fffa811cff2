package quant

import (
	"fmt"
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// fakeQuantColumnRef is the column-major fake-quant the row-major strip
// kernel replaced, kept as its oracle: each group of each column on its own,
// down the column at a stride of cols, its min and max first (a NaN compares
// false and is skipped), then every element against the scale
// max(|min|, |max|)/qmax.
func fakeQuantColumnRef(s Scheme, out, t *tensor.Tensor) {
	rows, cols := t.Rows(), t.Cols()
	group := s.GroupSize
	if group <= 0 || group > rows {
		group = rows
	}
	for c := 0; c < cols; c++ {
		for r0 := 0; r0 < rows; r0 += group {
			r1 := min(r0+group, rows)
			src := t.Data[r0*cols+c : (r1-1)*cols+c+1]
			dst := out.Data[r0*cols+c : (r1-1)*cols+c+1]
			lo, hi := minMaxStrided(src, cols)
			quantizeSliceRef(s, dst, src, cols, lo, hi)
		}
	}
}

func minMaxStrided(src []float32, stride int) (lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < len(src); i += stride {
		v := src[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

func quantizeSliceRef(s Scheme, dst, src []float32, stride int, lo, hi float32) {
	qmax := float64(int(1)<<(s.Bits-1)) - 1
	absMax := math.Max(math.Abs(float64(lo)), math.Abs(float64(hi)))
	if absMax == 0 {
		for i := 0; i < len(src); i += stride {
			dst[i] = 0
		}
		return
	}
	scale := absMax / qmax
	for i := 0; i < len(src); i += stride {
		q := math.Round(float64(src[i])/scale + 0)
		if q < -qmax {
			q = -qmax
		}
		if q > qmax {
			q = qmax
		}
		dst[i] = float32(q * scale)
	}
}

// fakeQuantSpecials are the values the kernel could treat differently from
// an ordinary weight: both zeros, NaN of either sign, ±Inf, denormals, the
// largest float32 and a value exactly half a step from two grid points.
var fakeQuantSpecials = []float32{
	0, float32(math.Copysign(0, -1)), float32(math.NaN()), math.Float32frombits(0xffc00001),
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	math.MaxFloat32, 0.5,
}

// fakeQuantGroups are the group sizes a case picks from: per-channel (0),
// one row, 4, LUC's 16, 64, and one larger than any case's rows.
var fakeQuantGroups = []int{0, 1, 4, 16, 64, 1 << 10}

// fakeQuantCase builds a rows × cols matrix whose data starts off elements
// into its backing array and holds the shapes flags asks for — bit 0 an
// all-NaN column, bit 1 a column of zeros and NaNs, bit 2 a denormal column,
// bit 3 magnitudes near the float32 limit — with specials, when non-zero,
// sprinkled over it. It holds the Go definition, and the AVX2 twin where
// this process has it, to fakeQuantColumnRef bit for bit, out of place and
// in place.
func fakeQuantCase(t *testing.T, seed int64, bits, rows, cols, group, off int, special, flags uint8) {
	t.Helper()
	g := tensor.NewRNG(seed)
	backing := g.Normal(0, 1, 1, off+rows*cols).Data
	w := tensor.FromSlice(backing[off:], rows, cols)
	if flags&8 != 0 {
		for i := range w.Data {
			w.Data[i] *= 1e37
		}
	}
	if special != 0 {
		stride := 1 + int(special)%7
		for i := int(special) % 5; i < len(w.Data); i += stride {
			w.Data[i] = fakeQuantSpecials[(i+int(special))%len(fakeQuantSpecials)]
		}
	}
	for r := 0; r < rows; r++ {
		if flags&1 != 0 {
			w.Set(r, 0, float32(math.NaN()))
		}
		if flags&2 != 0 && cols > 1 {
			w.Set(r, cols/2, []float32{0, float32(math.NaN()), float32(math.Copysign(0, -1))}[r%3])
		}
		if flags&4 != 0 {
			w.Set(r, cols-1, math.Float32frombits(uint32(1+(int(seed)+r)&0xffff)))
		}
	}
	s := Scheme{Bits: bits, Symmetric: true, PerChannel: true, GroupSize: group}
	want := tensor.New(rows, cols)
	fakeQuantColumnRef(s, want, w)

	paths := map[string]bool{"go": false}
	if useAVX2 {
		paths["avx2"] = true
	}
	for name, simd := range paths {
		out := tensor.New(rows, cols)
		s.fakeQuantInto(out, w, simd)
		in := w.Clone()
		s.fakeQuantInto(in, in, simd)
		desc := fmt.Sprintf("%s %v %d×%d off=%d special=%d flags=%d", name, s, rows, cols, off, special, flags)
		sameBits(t, desc+" out of place", w.Data, out.Data, want.Data)
		sameBits(t, desc+" in place", w.Data, in.Data, want.Data)
	}
}

func sameBits(t *testing.T, name string, in, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d (%v): %#x (%v), want %#x (%v)", name, i, in[i],
				math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
		}
	}
}

// FuzzFakeQuant lets the engine pick the width, the shape (ragged rows and
// columns around multiples of 8 and of the group), the group size, the base
// alignment, where the special values fall and which degenerate columns
// appear.
func FuzzFakeQuant(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(127), uint8(127), uint8(3), uint8(0), uint8(0), uint8(0)) // int4 128×128 g16
	f.Add(int64(2), uint8(0), uint8(21), uint8(9), uint8(0), uint8(1), uint8(3), uint8(1))    // int2 per-channel, all-NaN column
	f.Add(int64(3), uint8(6), uint8(16), uint8(16), uint8(1), uint8(3), uint8(9), uint8(2))   // int8 g1, zero+NaN column
	f.Add(int64(4), uint8(1), uint8(37), uint8(23), uint8(2), uint8(5), uint8(44), uint8(4))  // int3 g4, denormal column
	f.Add(int64(5), uint8(3), uint8(70), uint8(64), uint8(4), uint8(7), uint8(13), uint8(8))  // int5 g64, huge
	f.Add(int64(6), uint8(4), uint8(5), uint8(7), uint8(5), uint8(2), uint8(200), uint8(15))  // int6, group > rows, all flags
	f.Add(int64(7), uint8(5), uint8(0), uint8(0), uint8(3), uint8(0), uint8(6), uint8(3))     // 1×1
	f.Add(int64(8), uint8(2), uint8(33), uint8(200), uint8(3), uint8(6), uint8(1), uint8(0))  // wide, ragged
	f.Fuzz(func(t *testing.T, seed int64, bitsRaw, rowsRaw, colsRaw, groupRaw, off, special, flags uint8) {
		rows, cols := 1+int(rowsRaw)%160, 1+int(colsRaw)
		group := fakeQuantGroups[int(groupRaw)%len(fakeQuantGroups)]
		fakeQuantCase(t, seed, 2+int(bitsRaw)%7, rows, cols, group, int(off)%8, special, flags)
	})
}

// benchFakeQuant fake-quantizes a 128×384 matrix (a tune_window block's
// dim × hidden MLP weight) at 4 bits in groups of 16, LUC's scheme, out of
// place. BenchmarkFakeQuant over BenchmarkFakeQuantGo is the assembly's
// speedup over the Go definition, which benchguard gates.
func benchFakeQuant(b *testing.B, simd bool) {
	w := tensor.NewRNG(5).Normal(0, 0.05, 128, 384)
	out := tensor.New(128, 384)
	s := Scheme{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 16}
	b.SetBytes(2 * 4 * int64(w.Len()))
	b.ReportAllocs()
	for b.Loop() {
		s.fakeQuantInto(out, w, simd)
	}
}

func BenchmarkFakeQuant(b *testing.B)   { benchFakeQuant(b, useAVX2) }
func BenchmarkFakeQuantGo(b *testing.B) { benchFakeQuant(b, false) }
