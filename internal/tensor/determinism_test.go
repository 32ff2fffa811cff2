package tensor

import (
	"math"
	"runtime"
	"testing"
)

// detSize is chosen so m·n·k is exactly parallelThreshold, forcing the
// banded parallel path even on the smallest matrices the tests can afford.
const detRows, detCols, detInner = 128, 128, 512

func bitsEqual(t *testing.T, name string, a, b *Tensor) {
	t.Helper()
	if !a.SameShape(b) {
		t.Fatalf("%s: shape mismatch %v vs %v", name, a.Shape, b.Shape)
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", name, i, a.Data[i], b.Data[i])
		}
	}
}

// withGOMAXPROCS runs fn at the given parallelism and restores the old one.
func withGOMAXPROCS(n int, fn func()) {
	old := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(old)
	fn()
}

// runBoth evaluates kernel at GOMAXPROCS(1) and GOMAXPROCS(≥8) into two
// fresh outputs and returns them for bitwise comparison.
func runBoth(outShape [2]int, kernel func(out *Tensor)) (serial, parallel *Tensor) {
	serial = New(outShape[0], outShape[1])
	parallel = New(outShape[0], outShape[1])
	withGOMAXPROCS(1, func() { kernel(serial) })
	workers := runtime.NumCPU()
	if workers < 8 {
		workers = 8 // force multiple bands even on small CI machines
	}
	withGOMAXPROCS(workers, func() { kernel(parallel) })
	return serial, parallel
}

func TestDeterminismMatMulIntoAcrossGOMAXPROCS(t *testing.T) {
	if detRows*detCols*detInner < parallelThreshold {
		t.Fatalf("det size %d·%d·%d is below parallelThreshold %d: these tests would compare the serial path with itself", detRows, detCols, detInner, parallelThreshold)
	}
	g := NewRNG(11)
	a := g.Normal(0, 1, detRows, detInner)
	b := g.Normal(0, 1, detInner, detCols)
	serial, parallel := runBoth([2]int{detRows, detCols}, func(out *Tensor) { MatMulInto(out, a, b) })
	bitsEqual(t, "MatMulInto", serial, parallel)
}

func TestDeterminismMatMulTIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(12)
	a := g.Normal(0, 1, detRows, detInner)
	bT := g.Normal(0, 1, detCols, detInner)
	serial, parallel := runBoth([2]int{detRows, detCols}, func(out *Tensor) { MatMulTInto(out, a, bT) })
	bitsEqual(t, "MatMulTInto", serial, parallel)

	// The banded kernel must also agree bitwise with the unbanded band
	// function run over the whole row range (the pre-banding semantics).
	ref := New(detRows, detCols)
	matmulTRows(ref, a, bT, 0, detRows)
	bitsEqual(t, "MatMulTInto vs single band", serial, ref)
}

func TestDeterminismTMatMulIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(13)
	aT := g.Normal(0, 1, detInner, detRows)
	b := g.Normal(0, 1, detInner, detCols)
	serial, parallel := runBoth([2]int{detRows, detCols}, func(out *Tensor) { TMatMulInto(out, aT, b) })
	bitsEqual(t, "TMatMulInto", serial, parallel)

	ref := New(detRows, detCols)
	tmatmulRows(ref, aT, b, 0, detRows)
	bitsEqual(t, "TMatMulInto vs single band", serial, ref)
}

// TestDeterminismIntoKernelsPoolBuffers asserts the Into kernels produce
// bitwise-identical results into a recycled (previously dirty) pool buffer
// — Get zero-fills, so pool-on and pool-off runs cannot diverge.
func TestDeterminismIntoKernelsPoolBuffers(t *testing.T) {
	g := NewRNG(14)
	a := g.Normal(0, 1, 32, 24)
	bT := g.Normal(0, 1, 40, 24)
	fresh := New(32, 40)
	MatMulTInto(fresh, a, bT)

	p := NewPool()
	dirty := p.Get(32, 40)
	for i := range dirty.Data {
		dirty.Data[i] = 999
	}
	p.Put(dirty)
	recycled := p.Get(32, 40)
	MatMulTInto(recycled, a, bT)
	bitsEqual(t, "MatMulTInto into pooled buffer", fresh, recycled)

	aT2 := g.Normal(0, 1, 24, 32)
	b2 := g.Normal(0, 1, 24, 40)
	fresh2 := New(32, 40)
	TMatMulInto(fresh2, aT2, b2)
	p.Put(recycled)
	recycled2 := p.Get(32, 40)
	TMatMulInto(recycled2, aT2, b2)
	bitsEqual(t, "TMatMulInto into pooled buffer", fresh2, recycled2)
}

// naiveTranspose is the obviously-correct reference for the tiled kernel.
func naiveTranspose(t *Tensor) *Tensor {
	r, c := t.Rows(), t.Cols()
	out := New(c, r)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			out.Data[j*r+i] = t.At(i, j)
		}
	}
	return out
}

func TestTransposeEdgeShapes(t *testing.T) {
	g := NewRNG(15)
	shapes := [][2]int{
		{1, 7},    // single row
		{7, 1},    // single column
		{1, 129},  // single row spanning multiple tiles
		{130, 1},  // single column spanning multiple tiles
		{3, 65},   // non-multiple-of-block columns
		{65, 3},   // non-multiple-of-block rows
		{64, 64},  // exactly one tile
		{100, 67}, // both dimensions off-block
	}
	for _, s := range shapes {
		x := g.Normal(0, 1, s[0], s[1])
		got := Transpose(x)
		bitsEqual(t, "Transpose", naiveTranspose(x), got)
		back := Transpose(got)
		bitsEqual(t, "Transpose involution", x, back)
	}
}

func TestTransposeIntoShapeCheck(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("TransposeInto with wrong out shape must panic")
		}
	}()
	TransposeInto(New(3, 4), New(3, 4))
}
