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
	aBack := g.Normal(0, 1, 1, off+k*aStride+1).Data
	bBack := g.Normal(0, 1, 1, off+k*bStride+n+1).Data
	a, b := aBack[off:], bBack[off:]
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
	got := make([]float32, off+n)[off:]
	want := make([]float32, n)
	for i := range got {
		got[i] = float32(math.NaN()) // every element must be overwritten
	}
	SumCols(got, a, aStride, b, bStride, k)
	sumColsGo(want, a, aStride, b, bStride, k)
	sameFloats(t, fmt.Sprintf("SumCols n=%d k=%d aStride=%d bStride=%d off=%d special=%d", n, k, aStride, bStride, off, special), got, want)
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

// TestMatMulKernelsMatchNaive pins the three dense kernels' contract where
// it is visible from outside: each output element is one ascending-k float32
// sum from +0 that skips zero activations — what the obvious triple loop
// computes — on shapes that mix the wide, narrow and ragged column paths.
func TestMatMulKernelsMatchNaive(t *testing.T) {
	for _, sh := range [][3]int{{1, 5, 7}, {3, 17, 8}, {2, 64, 75}, {5, 33, 136}, {4, 9, 203}} {
		m, k, n := sh[0], sh[1], sh[2]
		g := NewRNG(int64(m + k + n))
		a, b := g.Normal(0, 1, m, k), g.Normal(0, 1, k, n)
		for i := 0; i < len(a.Data); i += 4 {
			a.Data[i] = 0
		}
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
		bitsEqual(t, fmt.Sprintf("MatMulInto %v", sh), got, want)
		TMatMulInto(got, Transpose(a), b)
		bitsEqual(t, fmt.Sprintf("TMatMulInto %v", sh), got, want)
	}
}
