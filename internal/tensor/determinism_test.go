package tensor

import (
	"fmt"
	"math"
	"runtime"
	"slices"
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

// detRows·detCols·detInner is exactly parallelThreshold, so the kernels
// below band even on the smallest matrices the tests can afford.
const detRows, detCols, detInner = 128, 128, 512

// checkAcrossGOMAXPROCS runs kernel at GOMAXPROCS 1 and at ≥ 8 (so it bands
// even on a small machine) and requires both bitwise equal to ref, the
// kernel's single-band reference, under every kernel of this host.
func checkAcrossGOMAXPROCS(t *testing.T, name string, kernel, ref func(out *Tensor)) {
	t.Helper()
	if detRows*detCols*detInner < parallelThreshold {
		t.Fatalf("%d·%d·%d is below parallelThreshold %d: nothing here would fan out", detRows, detCols, detInner, parallelThreshold)
	}
	eachTileMode(func(path string) {
		want := New(detRows, detCols)
		ref(want)
		for _, procs := range []int{1, max(8, runtime.NumCPU())} {
			old := runtime.GOMAXPROCS(procs)
			got := New(detRows, detCols)
			kernel(got)
			runtime.GOMAXPROCS(old)
			bitsEqual(t, fmt.Sprintf("%s %s procs=%d vs single band", path, name, procs), got, want)
		}
	})
}

func TestDeterminismMatMulIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(11)
	a, b := g.Normal(0, 1, detRows, detInner), g.Normal(0, 1, detInner, detCols)
	checkAcrossGOMAXPROCS(t, "MatMulInto",
		func(out *Tensor) { MatMulInto(out, a, b) },
		func(out *Tensor) { matmulRows(out, a, b, 0, detRows) })
}

func TestDeterminismMatMulTIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(12)
	a, bT := g.Normal(0, 1, detRows, detInner), g.Normal(0, 1, detCols, detInner)
	checkAcrossGOMAXPROCS(t, "MatMulTInto",
		func(out *Tensor) { MatMulTInto(out, a, bT) },
		func(out *Tensor) { matmulTScalarRef(out, a, bT) })
}

func TestDeterminismTMatMulIntoAcrossGOMAXPROCS(t *testing.T) {
	g := NewRNG(13)
	aT, b := g.Normal(0, 1, detInner, detRows), g.Normal(0, 1, detInner, detCols)
	checkAcrossGOMAXPROCS(t, "TMatMulInto",
		func(out *Tensor) { TMatMulInto(out, aT, b) },
		func(out *Tensor) { tmatmulRows(out, aT, b, 0, detRows) })
}

// TestBandsPartition checks bandWorkers' two cases and bands' split over a
// grid of range lengths, grains and worker counts: the bands run, in worker
// order, tile [0, n) exactly, every one but the last a whole number of
// grains — so there are at most ceil(n/grain) of them, and a band index past
// workers panics — and the same inputs give the same bands.
func TestBandsPartition(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	if w, w1 := bandWorkers(250, 64, parallelThreshold), bandWorkers(250, 64, parallelThreshold-1); w != 4 || w1 != 1 {
		t.Fatalf("bandWorkers at 8 procs: %d at the threshold (want ceil(250/64) = 4), %d below it (want 1)", w, w1)
	}
	split := func(n, grain, workers int) [][2]int {
		got := make([][2]int, workers) // a band never run stays [0,0)
		bands(n, grain, workers, func(w, lo, hi int) { got[w] = [2]int{lo, hi} })
		return got
	}
	for _, n := range []int{1, 2, 7, 8, 63, 64, 65, 250, 264, 513} {
		for _, grain := range []int{1, 8, 32, 64} {
			for _, workers := range []int{1, 2, 3, 4, 8, 64} {
				got, next := split(n, grain, workers), 0
				for _, b := range got {
					if next < n && b[0] == next && b[1] > next && (b[1] == n || (b[1]-next)%grain == 0) {
						next = b[1]
					} else if b != [2]int{} {
						next = -1 // a band out of place, overlapping or past n
					}
				}
				if next != n || !slices.Equal(split(n, grain, workers), got) {
					t.Fatalf("n=%d grain=%d workers=%d: bands %v", n, grain, workers, got)
				}
			}
		}
	}
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
