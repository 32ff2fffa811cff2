package tensor

import (
	"fmt"
	"math"
	"testing"
)

// matmulTScalarRef is MatMulTInto as it was before it went through a
// transposed operand onto the column-lane kernel: a scalar dot product of an
// a row and a bT row, ascending k from +0, no zero skip. It stays as the
// differential reference the way nn's legacy decoder does.
func matmulTScalarRef(out, a, bT *Tensor) {
	k, n := a.Cols(), bT.Rows()
	for i := 0; i < a.Rows(); i++ {
		aRow := a.Data[i*k : (i+1)*k]
		for j := 0; j < n; j++ {
			bRow := bT.Data[j*k : (j+1)*k]
			var s float32
			for kk, av := range aRow {
				s += av * bRow[kk]
			}
			out.Data[i*n+j] = s
		}
	}
}

// finiteSpecials are the finite values a skip-zero kernel could treat
// differently from a loop that multiplies every term: both zeros and
// denormals of both signs.
var finiteSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(1),
	math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400000),
}

// TestMatMulTIntoMatchesScalarRef holds MatMulTInto to the deleted scalar
// loop bit for bit on shapes whose k and n are multiples of neither 8 nor 64
// (so every column path of SumCols and its Go tail run), with zeros and
// denormals sprinkled over both operands. Only ±Inf and NaN operands may
// tell the two apart (DESIGN.md §6, the zero-skip contract). It runs under
// every kernel of this host; m = 128 is the tile kernel's.
func TestMatMulTIntoMatchesScalarRef(t *testing.T) {
	eachTileMode(func(path string) {
		for _, m := range []int{1, 3, 128} {
			for _, k := range []int{5, 67, 131} {
				for _, n := range []int{13, 75, 203} {
					g := NewRNG(int64(m*1000 + k*10 + n))
					a, bT := g.Normal(0, 1, m, k), g.Normal(0, 1, n, k)
					for i := g.Intn(3); i < len(a.Data); i += 3 {
						a.Data[i] = finiteSpecials[i%len(finiteSpecials)]
					}
					for i := g.Intn(5); i < len(bT.Data); i += 5 {
						bT.Data[i] = finiteSpecials[i%len(finiteSpecials)]
					}
					want := New(m, n)
					matmulTScalarRef(want, a, bT)
					got := Full(float32(math.NaN()), m, n)
					MatMulTInto(got, a, bT)
					bitsEqual(t, fmt.Sprintf("%s MatMulTInto (%d,%d,%d)", path, m, k, n), got, want)
				}
			}
		}
	})
}
