package tensor

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"edgellm/internal/fault"
)

func TestNewShapes(t *testing.T) {
	a := New(3, 4)
	if a.Rows() != 3 || a.Cols() != 4 || a.Len() != 12 {
		t.Fatalf("New(3,4) got shape %v len %d", a.Shape, a.Len())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatalf("New must zero-fill, got %v", v)
		}
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, shape := range [][]int{{}, {0}, {2, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) should panic", shape)
				}
			}()
			New(shape...)
		}()
	}
}

func TestFromSliceAliasesAndValidates(t *testing.T) {
	d := []float32{1, 2, 3, 4}
	a := FromSlice(d, 2, 2)
	d[0] = 9
	if a.At(0, 0) != 9 {
		t.Fatal("FromSlice must alias the slice")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("FromSlice with wrong length should panic")
			}
		}()
		FromSlice(d, 3, 2)
	}()
}

func TestAtSetRow(t *testing.T) {
	a := New(2, 3)
	a.Set(1, 2, 5)
	if a.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	row := a.Row(1)
	if row[2] != 5 {
		t.Fatal("Row must view the underlying data")
	}
	row[0] = 7
	if a.At(1, 0) != 7 {
		t.Fatal("Row must alias, not copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3}, 3)
	b := a.Clone()
	b.Data[0] = 99
	if a.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := a.Reshape(3, 2)
	b.Set(0, 0, 42)
	if a.At(0, 0) != 42 {
		t.Fatal("Reshape must be a view")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Reshape to wrong element count should panic")
			}
		}()
		a.Reshape(4, 2)
	}()
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	b := FromSlice([]float32{10, 20, 30, 40}, 2, 2)
	if got := Add(a, b); got.At(1, 1) != 44 {
		t.Fatalf("Add got %v", got.Data)
	}
	if got := Sub(b, a); got.At(0, 0) != 9 {
		t.Fatalf("Sub got %v", got.Data)
	}
	if got := Mul(a, b); got.At(0, 1) != 40 {
		t.Fatalf("Mul got %v", got.Data)
	}
	if got := Scale(a, 2); got.At(1, 0) != 6 {
		t.Fatalf("Scale got %v", got.Data)
	}
	c := a.Clone()
	c.AxpyInPlace(0.5, b)
	if c.At(0, 0) != 6 {
		t.Fatalf("Axpy got %v", c.Data)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a, b := New(2, 2), New(2, 3)
	defer func() {
		if recover() == nil {
			t.Error("AddInPlace with shape mismatch should panic")
		}
	}()
	a.AddInPlace(b)
}

func TestReductions(t *testing.T) {
	a := FromSlice([]float32{-3, 1, 4, 0}, 4)
	if a.Sum() != 2 {
		t.Fatalf("Sum got %v", a.Sum())
	}
	if a.Mean() != 0.5 {
		t.Fatalf("Mean got %v", a.Mean())
	}
	if math.Abs(a.Norm2()-math.Sqrt(26)) > 1e-6 {
		t.Fatalf("Norm2 got %v", a.Norm2())
	}
	if a.CountNonZero() != 3 || a.Sparsity() != 0.25 {
		t.Fatal("CountNonZero/Sparsity wrong")
	}
}

func TestDotAndMSE(t *testing.T) {
	a := FromSlice([]float32{1, 2}, 2)
	b := FromSlice([]float32{3, 4}, 2)
	if Dot(a, b) != 11 {
		t.Fatalf("Dot got %v", Dot(a, b))
	}
	if MSE(a, b) != 4 {
		t.Fatalf("MSE got %v", MSE(a, b))
	}
}

// matmulNaive is an independent reference implementation for cross-checking
// the blocked kernel.
func matmulNaive(a, b *Tensor) *Tensor {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	out := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += float64(a.At(i, kk)) * float64(b.At(kk, j))
			}
			out.Set(i, j, float32(s))
		}
	}
	return out
}

// matMul returns a × b in a fresh tensor, through MatMulInto.
func matMul(a, b *Tensor) *Tensor {
	out := New(a.Rows(), b.Cols())
	MatMulInto(out, a, b)
	return out
}

// transposed returns tᵀ in a fresh tensor, through TransposeInto.
func transposed(t *Tensor) *Tensor {
	out := New(t.Cols(), t.Rows())
	TransposeInto(out, t)
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	g := NewRNG(1)
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {65, 70, 67}, {128, 64, 32}} {
		a := g.Normal(0, 1, dims[0], dims[1])
		b := g.Normal(0, 1, dims[1], dims[2])
		got := matMul(a, b)
		want := matmulNaive(a, b)
		if !AllClose(got, want, 1e-4, 1e-4) {
			t.Fatalf("MatMul mismatch at dims %v", dims)
		}
	}
}

func TestMatMulParallelMatchesSerial(t *testing.T) {
	// Large enough to cross the parallel threshold; result must be
	// bit-identical to the naive reference since bands own disjoint rows.
	g := NewRNG(12)
	a := g.Normal(0, 1, 513, 257)
	b := g.Normal(0, 1, 257, 67)
	if 513*257*67 < parallelThreshold {
		t.Fatal("shape is below parallelThreshold: nothing here would fan out")
	}
	got := matMul(a, b)
	want := matmulNaive(a, b)
	if !AllClose(got, want, 1e-3, 1e-3) {
		t.Fatal("parallel MatMul deviates from reference")
	}
}

func TestMatMulTAndTMatMulConsistency(t *testing.T) {
	g := NewRNG(2)
	a := g.Normal(0, 1, 9, 6)
	b := g.Normal(0, 1, 6, 11)
	want := matMul(a, b)
	got := New(9, 11)
	MatMulTInto(got, a, transposed(b))
	bitsEqual(t, "MatMulTInto(a, bᵀ) vs a×b", got, want)
	TMatMulInto(got, transposed(a), b)
	bitsEqual(t, "TMatMulInto(aᵀ, b) vs a×b", got, want)
}

func TestMatMulIntoReuse(t *testing.T) {
	g := NewRNG(3)
	a := g.Normal(0, 1, 4, 5)
	b := g.Normal(0, 1, 5, 6)
	out := Full(99, 4, 6)
	MatMulInto(out, a, b)
	if !AllClose(out, matmulNaive(a, b), 1e-4, 1e-4) {
		t.Fatal("MatMulInto must overwrite previous contents")
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMulInto with mismatched inner dims should panic")
		}
	}()
	MatMulInto(New(2, 5), New(2, 3), New(4, 5))
}

func TestTranspose(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := transposed(a)
	if b.Rows() != 3 || b.Cols() != 2 || b.At(2, 1) != 6 || b.At(0, 1) != 4 {
		t.Fatalf("Transpose got %v %v", b.Shape, b.Data)
	}
}

func TestSerializationRoundtrip(t *testing.T) {
	g := NewRNG(4)
	orig := g.Normal(0, 2, 3, 5)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back.SameShape(orig) || !AllClose(back, orig, 0, 0) {
		t.Fatal("serialisation roundtrip changed the tensor")
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a tensor"))); err == nil {
		t.Fatal("ReadFrom should reject bad magic")
	}
}

// TestReadFromLyingDimsAllocatesLittle: a header declaring 2^14 × 2^14
// (1 GiB of float32, the most ReadFrom accepts) with no payload behind it is
// an error that costs about one read chunk, not the gigabyte.
func TestReadFromLyingDimsAllocatesLittle(t *testing.T) {
	hdr := binary.LittleEndian.AppendUint32([]byte("ELT1"), 2)
	hdr = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(hdr, 1<<14), 1<<14)
	var err error
	cost := fault.Allocated(func() { _, err = ReadFrom(bytes.NewReader(hdr)) })
	if err == nil {
		t.Fatal("a tensor with no payload loaded")
	}
	if cost >= 4<<20 {
		t.Fatalf("a 16-byte input made ReadFrom allocate %d bytes, want < 4 MiB", cost)
	}
}

// TestReadFromDimsProductOverflow: two dims whose product is 2^32 — 0 in a
// 32-bit int, which would pass the element-count bound — are an error on
// every GOARCH.
func TestReadFromDimsProductOverflow(t *testing.T) {
	hdr := []byte("ELT1")
	for _, v := range []uint32{2, 1 << 16, 1 << 16} {
		hdr = binary.LittleEndian.AppendUint32(hdr, v)
	}
	if _, err := ReadFrom(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "implausible element count") {
		t.Fatalf("ReadFrom of a (2^16, 2^16) header: %v, want an implausible-element-count error", err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(7).Normal(0, 1, 4, 4)
	b := NewRNG(7).Normal(0, 1, 4, 4)
	if !AllClose(a, b, 0, 0) {
		t.Fatal("same seed must give identical tensors")
	}
	c := NewRNG(8).Normal(0, 1, 4, 4)
	if AllClose(a, c, 0, 0) {
		t.Fatal("different seeds should differ")
	}
}

func TestXavierKaimingScale(t *testing.T) {
	g := NewRNG(9)
	x := g.Xavier(256, 256)
	limit := float32(math.Sqrt(6.0 / 512.0))
	if slices.Max(x.Data) > limit || slices.Min(x.Data) < -limit {
		t.Fatal("Xavier out of bounds")
	}
}

// --- property-based tests ----------------------------------------------------

// genTensor builds a small tensor from quick-generated values.
func genTensor(vals []float32, rows, cols int) *Tensor {
	t := New(rows, cols)
	for i := range t.Data {
		v := vals[i%len(vals)]
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			v = 1
		}
		// clamp to keep float32 sums exact enough for property checks
		if v > 1e3 {
			v = 1e3
		}
		if v < -1e3 {
			v = -1e3
		}
		t.Data[i] = v
	}
	return t
}

func TestPropAddCommutative(t *testing.T) {
	f := func(vals []float32) bool {
		if len(vals) == 0 {
			return true
		}
		a := genTensor(vals, 3, 4)
		b := genTensor(vals, 3, 4)
		b.ScaleInPlace(0.5)
		return AllClose(Add(a, b), Add(b, a), 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropTransposeInvolution(t *testing.T) {
	f := func(vals []float32, r8, c8 uint8) bool {
		if len(vals) == 0 {
			return true
		}
		r, c := int(r8%7)+1, int(c8%7)+1
		a := genTensor(vals, r, c)
		return AllClose(transposed(transposed(a)), a, 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulLinearity(t *testing.T) {
	// (αA)×B == α(A×B)
	f := func(seed int64, alpha8 int8) bool {
		g := NewRNG(seed)
		alpha := float32(alpha8) / 16
		a := g.Normal(0, 1, 5, 4)
		b := g.Normal(0, 1, 4, 3)
		left := matMul(Scale(a, alpha), b)
		right := Scale(matMul(a, b), alpha)
		return AllClose(left, right, 1e-3, 1e-3)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropMatMulIdentity(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		n := int(n8%8) + 1
		g := NewRNG(seed)
		a := g.Normal(0, 1, n, n)
		id := New(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		return AllClose(matMul(a, id), a, 1e-5, 1e-6) && AllClose(matMul(id, a), a, 1e-5, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropSerializationRoundtrip(t *testing.T) {
	f := func(seed int64, r8, c8 uint8) bool {
		r, c := int(r8%9)+1, int(c8%9)+1
		a := NewRNG(seed).Normal(0, 3, r, c)
		var buf bytes.Buffer
		if _, err := a.WriteTo(&buf); err != nil {
			return false
		}
		b, err := ReadFrom(&buf)
		return err == nil && AllClose(a, b, 0, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSumSquaresMatchesNorm2 holds every lane arrangement of sumSquares —
// fewer slices than lanes, empty slices, slices that end together or one
// at a time, and a queue longer than the lanes — to Norm2's sum, bit for
// bit, with denormals, ±0, ±Inf and NaN among the values.
func TestSumSquaresMatchesNorm2(t *testing.T) {
	g := NewRNG(9)
	for _, lens := range [][]int{{}, {5}, {0, 3}, {7, 7, 7, 7}, {128, 16384, 16384, 16384, 16384, 128, 49152, 49152, 49152},
		{1, 0, 9, 64, 3, 3, 200, 17, 0, 1}, {40, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1}} {
		xs := make([][]float32, len(lens))
		for i, n := range lens {
			xs[i] = make([]float32, n)
			for j := range xs[i] {
				xs[i][j] = float32(g.NormFloat64())
				if g.Intn(50) == 0 {
					xs[i][j] = []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1), float32(math.Inf(-1)), float32(math.NaN())}[g.Intn(5)]
				}
			}
		}
		sums := make([]float64, len(xs))
		sumSquares(sums, xs)
		var ss float64
		for i, x := range xs {
			want := (&Tensor{Data: x}).Norm2()
			if got := math.Sqrt(sums[i]); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("lengths %v: slice %d sum %v, Norm2 %v", lens, i, got, want)
			}
			ss += want * want
		}
		if got, want := JointNorm(xs), math.Sqrt(ss); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("lengths %v: JointNorm %v, the Norm2 loop %v", lens, got, want)
		}
	}
}

// TestRMSNormRowsMatchesRow holds RMSNormRows, whose rows' sums run four
// side by side, to RMSNormRow row by row, bit for bit, for row counts that
// leave 0-3 rows after the groups of four, in place and out of place.
func TestRMSNormRowsMatchesRow(t *testing.T) {
	g := NewRNG(10)
	const c = 13
	gain := g.Normal(1, 0.5, 1, c).Data
	for rows := 1; rows <= 9; rows++ {
		x := g.Normal(0, 2, rows, c).Data
		x[g.Intn(len(x))] = float32(math.NaN())
		want, wantInv := make([]float32, len(x)), make([]float32, rows)
		for i := 0; i < rows; i++ {
			wantInv[i] = RMSNormRow(want[i*c:(i+1)*c], x[i*c:(i+1)*c], gain, 1e-5)
		}
		got, inv := make([]float32, len(x)), make([]float32, rows)
		RMSNormRows(got, x, gain, 1e-5, inv)
		inPlace := append([]float32(nil), x...)
		RMSNormRows(inPlace, inPlace, gain, 1e-5, make([]float32, rows))
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(inPlace[i]) != math.Float32bits(want[i]) {
				t.Fatalf("rows %d element %d: %v (in place %v), RMSNormRow %v", rows, i, got[i], inPlace[i], want[i])
			}
		}
		for i := range inv {
			if math.Float32bits(inv[i]) != math.Float32bits(wantInv[i]) {
				t.Fatalf("rows %d: inv[%d] %v, RMSNormRow %v", rows, i, inv[i], wantInv[i])
			}
		}
	}
}
