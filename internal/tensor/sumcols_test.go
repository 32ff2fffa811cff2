package tensor

import (
	"fmt"
	"math"
	"testing"
)

// specialValues are the float32s a kernel can treat differently from an
// ordinary number: both zeros (skipped as activations), denormals, both
// infinities, NaN (as an activation: multiplied through, not skipped).
var specialValues = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
	math.MaxFloat32,
}

// sameFloats compares got with want bit for bit, except that any NaN equals
// any NaN: which payload survives NaN + NaN depends on operand order, which
// the Go compiler is free to choose for the reference and the language does
// not define.
func sameFloats(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if math.Float32bits(g) != math.Float32bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: element %d: %x (%v), want %x (%v)", name, i, math.Float32bits(g), g, math.Float32bits(w), w)
		}
	}
}

// sumColsCase runs one SumCols call through the dispatcher (the assembly,
// where this process has it) and through sumColsGo over the same operands
// and compares. The operands start off elements into their backing arrays,
// so the base pointers are not 32-byte aligned unless off happens to make
// them; special, when non-zero, sprinkles specialValues over a and b.
func sumColsCase(t *testing.T, seed int64, n, k, aStride, bPad, off int, special uint8) {
	t.Helper()
	g := NewRNG(seed)
	bStride := n + bPad
	a, b := kernelOperands(g, off, k*aStride+1, k*bStride+n+1, special)
	got := make([]float32, off+n)[off:]
	want := make([]float32, n)
	for i := range got {
		got[i] = float32(math.NaN()) // every element must be overwritten
	}
	SumCols(got, a, aStride, b, bStride, k)
	sumColsGo(want, a, aStride, b, bStride, k)
	sameFloats(t, fmt.Sprintf("SumCols n=%d k=%d aStride=%d bStride=%d off=%d special=%d", n, k, aStride, bStride, off, special), got, want)
}

// kernelOperands returns a and b of aLen and bLen normal floats, each off
// elements into its backing array, with zeros on about a third of a and,
// when special is non-zero, specialValues sprinkled over both.
func kernelOperands(g *RNG, off, aLen, bLen int, special uint8) (a, b []float32) {
	a = g.Normal(0, 1, 1, off+aLen).Data[off:]
	b = g.Normal(0, 1, 1, off+bLen).Data[off:]
	for i := range a {
		if g.Intn(3) == 0 {
			a[i] = 0 // the zero skip, on about a third of the rows
		}
	}
	if special != 0 {
		step := 1 + int(special)%7
		for i := int(special) % 5; i < len(a); i += step {
			a[i] = specialValues[(i+int(special))%len(specialValues)]
		}
		for i := int(special) % 11; i < len(b); i += 2 * step {
			b[i] = specialValues[(i/2+int(special))%len(specialValues)]
		}
	}
	return a, b
}

// TestSumColsMatchesGo pins the assembly against its Go twin on every column
// path (64-, 32- and 8-wide loops, the Go tail of a width that is not a
// multiple of 8, and their combinations), both strides, k = 0 and 1, and the
// special values. On a machine without the assembly it compares the
// reference with itself.
func TestSumColsMatchesGo(t *testing.T) {
	t.Logf("kernel path: %s", KernelPath())
	for _, n := range []int{1, 5, 8, 13, 16, 24, 32, 40, 64, 67, 72, 96, 104, 128, 264} {
		for _, k := range []int{0, 1, 2, 7, 33} {
			for off := 0; off < 3; off++ {
				sumColsCase(t, int64(n*100+k), n, k, 1, 0, off, 0)
				sumColsCase(t, int64(n*100+k), n, k, 3, 5, off, uint8(n+k+off))
			}
		}
	}
}

// FuzzSumCols lets the engine pick the shape, both strides, the base
// alignment and where the special values fall.
func FuzzSumCols(f *testing.F) {
	f.Add(int64(1), uint8(63), uint8(33), uint8(0), uint8(0), uint8(0), uint8(0))   // 64 columns, contiguous
	f.Add(int64(2), uint8(108), uint8(17), uint8(2), uint8(3), uint8(1), uint8(9))  // 64+32+8+5, strided, specials
	f.Add(int64(3), uint8(7), uint8(0), uint8(0), uint8(0), uint8(5), uint8(0))     // k = 0
	f.Add(int64(4), uint8(31), uint8(200), uint8(4), uint8(8), uint8(7), uint8(77)) // 32 columns
	f.Add(int64(5), uint8(4), uint8(9), uint8(1), uint8(2), uint8(3), uint8(5))     // 5 columns: all tail
	f.Fuzz(func(t *testing.T, seed int64, nRaw, kRaw, aStrideRaw, bPad, off, special uint8) {
		n, k := 1+int(nRaw)%200, int(kRaw)%80
		sumColsCase(t, seed, n, k, 1+int(aStrideRaw)%5, int(bPad)%9, int(off)%8, special)
	})
}

// eachTileMode runs fn under every kernel this host can put beneath the
// multi-row matmuls: as detected, and once more with the AVX-512 tile kernel
// off where it was on — so one AVX-512 host checks both the tile kernel and
// the AVX2 sweep it sits on. path is KernelPath() during the run.
func eachTileMode(fn func(path string)) {
	detected := useAVX512
	defer func() { useAVX512 = detected }()
	fn(KernelPath())
	if detected {
		useAVX512 = false
		fn(KernelPath())
	}
}

// matmulRowsCase runs sumColsRows over rows output rows — the tile kernel's
// whole groups of four rows, with 0-3 rows and the columns past a multiple
// of 32 left to SumCols — and holds
// every row to sumColsGo over the same operands. a's rows start aRow
// elements apart and step aStride per k, so both the row-major a of
// MatMulInto and the strided aᵀ of TMatMulInto are instances; out's rows are
// n+pad apart, and the padding between them must stay untouched.
func matmulRowsCase(t *testing.T, path string, seed int64, rows, n, k, aRow, aStride, pad, off int, special uint8) {
	t.Helper()
	g := NewRNG(seed)
	stride := n + pad
	a, b := kernelOperands(g, off, (rows-1)*aRow+k*aStride+1, k*stride+n+1, special)
	got := make([]float32, off+(rows-1)*stride+n)[off:]
	for i := range got {
		got[i] = float32(math.NaN())
	}
	want := append([]float32(nil), got...)
	sumColsRows(got, stride, n, a, aRow, aStride, b, stride, k, rows)
	for i := 0; i < rows; i++ {
		sumColsGo(want[i*stride:i*stride+n], a[i*aRow:], aStride, b, stride, k)
	}
	sameFloats(t, fmt.Sprintf("%s sumColsRows rows=%d n=%d k=%d aRow=%d aStride=%d stride=%d off=%d special=%d",
		path, rows, n, k, aRow, aStride, stride, off, special), got, want)
}

// FuzzMatMulRows lets the engine pick the row count (whole groups of four
// rows and the 0-3 left over), the width, k, a's row and k strides, the padding, the base
// alignment and where the special values fall, under every kernel of this
// host: each row equals sumColsGo bit for bit, NaN payloads aside.
func FuzzMatMulRows(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(63), uint8(33), uint8(32), uint8(0), uint8(0), uint8(0), uint8(0))   // 16 × 64, row-major: tiles only
	f.Add(int64(2), uint8(18), uint8(107), uint8(17), uint8(0), uint8(4), uint8(3), uint8(1), uint8(9))   // 19 rows, 64+32+12 columns, interleaved rows, specials
	f.Add(int64(3), uint8(16), uint8(31), uint8(0), uint8(5), uint8(0), uint8(0), uint8(5), uint8(0))     // k = 0
	f.Add(int64(4), uint8(127), uint8(31), uint8(200), uint8(9), uint8(1), uint8(8), uint8(7), uint8(77)) // 128 rows × 32 columns
	f.Add(int64(5), uint8(2), uint8(40), uint8(9), uint8(12), uint8(2), uint8(2), uint8(3), uint8(5))     // 3 rows: no whole group
	f.Add(int64(6), uint8(3), uint8(95), uint8(63), uint8(64), uint8(0), uint8(0), uint8(0), uint8(0))    // 4 rows × 96, row-major: one group
	f.Add(int64(7), uint8(7), uint8(75), uint8(40), uint8(3), uint8(3), uint8(5), uint8(2), uint8(33))    // 8 rows, 64+12 columns, strided, specials
	// k = 1 at 4 and 8 rows, widths 64 and 96: one call of a 64-column pass,
	// and a 64-column call then a 32-column one (sumColsRows hands the tile
	// at most blockSize = 64 columns a call)
	f.Add(int64(8), uint8(3), uint8(63), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(int64(9), uint8(3), uint8(95), uint8(1), uint8(1), uint8(0), uint8(3), uint8(1), uint8(13))
	f.Add(int64(10), uint8(7), uint8(63), uint8(1), uint8(0), uint8(1), uint8(2), uint8(5), uint8(41))
	f.Add(int64(11), uint8(7), uint8(95), uint8(1), uint8(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, rowsRaw, nRaw, kRaw, aRowRaw, aStrideRaw, pad, off, special uint8) {
		rows, n, k := 1+int(rowsRaw)%130, 1+int(nRaw)%140, int(kRaw)%80
		aRow, aStride := 1+int(aRowRaw)%200, 1+int(aStrideRaw)%5
		eachTileMode(func(path string) {
			matmulRowsCase(t, path, seed, rows, n, k, aRow, aStride, int(pad)%9, int(off)%8, special)
		})
	})
}

// TestSumPairMatchesGo pins the two-row pass to sumColsGo: at 2, 3, 6 and 7
// rows the pair sits after no, no, one and one group of four rows, with a
// row left to SumCols at 3 and 7; at widths 64, 65, 96 and 130 it takes the
// full 64-column blocks and leaves the narrower last block to the row-by-row
// path. Both strides vary, and the special values fall on a and b. Then each
// row of the pair gets its own ±0 and NaN activations over a b row of ±Inf
// and NaN, where a row that skipped the other's zeros, or not its own, would
// read NaN or lose one.
func TestSumPairMatchesGo(t *testing.T) {
	for _, rows := range []int{2, 3, 6, 7} {
		for _, n := range []int{64, 65, 96, 130} {
			for _, k := range []int{1, 7, 33} {
				eachTileMode(func(path string) {
					matmulRowsCase(t, path, int64(rows*1000+n*10+k), rows, n, k, k, 1, 0, 0, 0)
					matmulRowsCase(t, path, int64(rows*1000+n*10+k), rows, n, k, 2*k+3, 2, 3, 1, uint8(rows+n+k))
				})
			}
		}
	}
	negZero, inf, nan := float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN())
	const n, k = 128, 8
	b := NewRNG(5).Normal(0, 1, k, n).Data
	for j := 0; j < n; j++ {
		b[3*n+j] = []float32{inf, -inf, nan}[j%3]
	}
	a := []float32{
		1, 0, 2, negZero, 3, nan, -1, 0.5, // row 0: zeros at k = 1 and 3, NaN at 5
		negZero, 2, nan, 4, 0, 1, 0, -2, // row 1: zeros at k = 0, 4 and 6, NaN at 2
	}
	a[3], a[k+3] = 0, 0 // both rows skip the ±Inf and NaN row
	for _, zero := range []bool{true, false} {
		if !zero {
			a[k+3] = 1.5 // row 1 alone multiplies it through
		}
		eachTileMode(func(path string) {
			got := make([]float32, 2*n)
			sumColsRows(got, n, n, a, k, 1, b, n, k, 2)
			want := make([]float32, 2*n)
			for r := 0; r < 2; r++ {
				sumColsGo(want[r*n:(r+1)*n], a[r*k:], 1, b, n, k)
			}
			sameFloats(t, fmt.Sprintf("%s pair, special activations, row 1 zero at the special row %v", path, zero), got, want)
		})
	}
}

// TestMatMulKernelsMatchNaive pins the three dense kernels' contract where
// it is visible from outside: each output element is one ascending-k float32
// sum from +0 that skips zero activations — what the obvious triple loop
// computes — on shapes that mix the wide, narrow and ragged column paths,
// under every kernel of this host. Every shape adds the special values — at
// 4, 8, 12, 16 and 128 rows all in the tile kernel's groups of four, at 5
// and 19 with 1 and 3 rows left over: ±0, NaN and ±Inf activations; and ±Inf and NaN weights in one row of b under a zero
// activation in every other row of a, the one case where the skip decides
// the bits, and each row of a 4-row group must skip its own. At 4 × 64 and
// 8 × 64 the whole call is one 64-column pass per group, so the special row
// also lies across columns 32-63, which the four rows share in that pass.
func TestMatMulKernelsMatchNaive(t *testing.T) {
	negZero, inf, nan := float32(math.Copysign(0, -1)), float32(math.Inf(1)), float32(math.NaN())
	eachTileMode(func(path string) {
		for _, sh := range [][3]int{{1, 5, 7}, {3, 17, 8}, {2, 64, 75}, {5, 33, 136}, {4, 9, 203}, {4, 128, 384}, {8, 256, 768}, {12, 33, 136}, {16, 40, 96}, {19, 33, 136}, {128, 17, 75}, {4, 3, 64}, {8, 6, 64}} {
			m, k, n := sh[0], sh[1], sh[2]
			g := NewRNG(int64(m + k + n))
			a, b := g.Normal(0, 1, m, k), g.Normal(0, 1, k, n)
			for i := 0; i < len(a.Data); i += 4 {
				a.Data[i] = 0
			}
			matchNaive(t, fmt.Sprintf("%s %v", path, sh), a, b)
			sa := a.Clone()
			for i, sp := 1, 0; i < len(sa.Data); i, sp = i+7, sp+1 {
				sa.Data[i] = []float32{negZero, nan, inf, -inf, 0}[sp%5]
			}
			matchNaive(t, fmt.Sprintf("%s %v special activations", path, sh), sa, b)
			za, sb, kk := a.Clone(), b.Clone(), k/2
			for j := 0; j < n; j++ {
				sb.Data[kk*n+j] = []float32{inf, -inf, nan}[j%3]
			}
			for i := 0; i < m; i++ {
				za.Data[i*k+kk] = []float32{0, 1.5, negZero, -2}[i%4]
			}
			matchNaive(t, fmt.Sprintf("%s %v special weights", path, sh), za, sb)
		}
	})
}

// matchNaive holds MatMulInto(a, b) and TMatMulInto(aᵀ, b) to the triple
// loop that skips zero activations, NaN payloads aside.
func matchNaive(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	want := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for kk := 0; kk < k; kk++ {
				if av := a.Data[i*k+kk]; av != 0 {
					s += av * b.Data[kk*n+j]
				}
			}
			want.Data[i*n+j] = s
		}
	}
	got := New(m, n)
	MatMulInto(got, a, b)
	sameFloats(t, "MatMulInto "+name, got.Data, want.Data)
	TMatMulInto(got, transposed(a), b)
	sameFloats(t, "TMatMulInto "+name, got.Data, want.Data)
}
