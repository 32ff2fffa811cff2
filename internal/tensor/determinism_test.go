package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
)

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

// unitFunc is a Work of a function.
type unitFunc func(lane, u int)

func (f unitFunc) RunUnit(lane, u int) { f(lane, u) }

// checkLaneSplit computes a product as n units on a real Team at 1 to 4
// lanes, under GOMAXPROCS 1 and max(4, NumCPU): unit(out, lane, u) writes
// unit u of the product into out on lane. Every result must equal want, the
// one-call kernel's, bit for bit, whichever lane computed which unit; out
// starts as NaN, so a unit that wrote too little shows too.
func checkLaneSplit(t *testing.T, name string, want *Tensor, n int, unit func(out *Tensor, lane, u int)) {
	t.Helper()
	for _, procs := range []int{1, max(4, runtime.NumCPU())} {
		for lanes := 1; lanes <= 4; lanes++ {
			got := Full(float32(math.NaN()), want.Shape...)
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				tm := NewTeam(lanes)
				defer tm.Stop()
				tm.Start()
				defer tm.Park()
				tm.Run(unitFunc(func(lane, u int) { unit(got, lane, u) }), n)
			}()
			bitsEqual(t, fmt.Sprintf("%s procs %d, %d lanes vs one call", name, procs, lanes), got, want)
		}
	}
}

// colUnits is the number of BlockCols-column units of an n-column product,
// and colUnit unit u's columns.
func colUnits(n int) int { return (n + BlockCols - 1) / BlockCols }

func colUnit(u, n int) (jLo, jHi int) { return u * BlockCols, min((u+1)*BlockCols, n) }

// The dense determinism products: 200 columns end in an 8-column unit, and
// 72 rows in detRowUnit-row units end in an 8-row one.
const detRows, detCols, detInner, detRowUnit = 72, 200, 160, 16

func TestDeterminismMatMulIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(11)
	a, b := g.Normal(0, 1, detRows, detInner), g.Normal(0, 1, detInner, detCols)
	eachTileMode(func(path string) {
		want := New(detRows, detCols)
		MatMulInto(want, a, b)
		checkLaneSplit(t, path+" MatMulInto", want, colUnits(detCols), func(out *Tensor, _, u int) {
			jLo, jHi := colUnit(u, detCols)
			MatMulColsInto(out, a, b, jLo, jHi)
		})
	})
}

// TestDeterminismMatMulTIntoAcrossGOMAXPROCS splits MatMulTInto's two calls
// as a caller with a team does: the transpose on the leader, the product by
// column units. The one call also equals the scalar reference.
func TestDeterminismMatMulTIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(12)
	a, bT := g.Normal(0, 1, detRows, detInner), g.Normal(0, 1, detCols, detInner)
	b := transposed(bT)
	eachTileMode(func(path string) {
		want, ref := New(detRows, detCols), New(detRows, detCols)
		MatMulTInto(want, a, bT)
		matmulTScalarRef(ref, a, bT)
		bitsEqual(t, path+" MatMulTInto vs scalar reference", want, ref)
		checkLaneSplit(t, path+" MatMulTInto", want, colUnits(detCols), func(out *Tensor, _, u int) {
			jLo, jHi := colUnit(u, detCols)
			MatMulColsInto(out, a, b, jLo, jHi)
		})
	})
}

func TestDeterminismTMatMulIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(13)
	aT, b := g.Normal(0, 1, detInner, detRows), g.Normal(0, 1, detInner, detCols)
	eachTileMode(func(path string) {
		want := New(detRows, detCols)
		TMatMulInto(want, aT, b)
		units := (detRows + detRowUnit - 1) / detRowUnit
		checkLaneSplit(t, path+" TMatMulInto", want, units, func(out *Tensor, _, u int) {
			tmatmulRows(out, aT, b, u*detRowUnit, min((u+1)*detRowUnit, detRows))
		})
	})
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

// naiveTranspose is the obviously-correct reference for the blocked kernel.
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
		{1, 7},     // single row
		{7, 1},     // single column
		{1, 129},   // single row spanning multiple tiles
		{130, 1},   // single column spanning multiple tiles
		{3, 65},    // non-multiple-of-block columns
		{65, 3},    // non-multiple-of-block rows
		{64, 64},   // exactly one tile
		{100, 67},  // both dimensions off-block
		{8, 8},     // exactly one 8 × 8 block
		{9, 17},    // one row and one column past whole blocks
		{71, 130},  // 8 × 8 blocks across tile edges, both edges ragged
		{128, 384}, // a training weight: whole tiles and blocks
	}
	for _, s := range shapes {
		x := g.Normal(0, 1, s[0], s[1])
		got := transposed(x)
		bitsEqual(t, "TransposeInto", naiveTranspose(x), got)
		back := transposed(got)
		bitsEqual(t, "TransposeInto involution", x, back)
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
