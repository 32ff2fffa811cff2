// Packed-kernel tests live in an external test package so they can build
// real quant.Packed/PackedNF matrices; the quant package imports tensor,
// so the internal package cannot.
package tensor_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

func randTensor(rows, cols int, seed int64) *tensor.Tensor {
	g := tensor.NewRNG(seed)
	return g.Normal(0, 0.5, rows, cols)
}

type packedVariant interface {
	tensor.PackedMat
	Unpack() *tensor.Tensor
}

// packVariants returns every packed representation under test for one
// weight matrix, keyed by name. The NF block sizes cover the word path's
// cases: 64 divides a row or not depending on the shape, 40 is a multiple
// of 8 that divides none of the shapes' rows (the scale index carries a
// remainder from row to row), 20 is not a multiple of 8 (a block row
// straddles two scales: per-element decode), and 0 is the whole tensor.
func packVariants(w *tensor.Tensor) map[string]packedVariant {
	out := map[string]packedVariant{}
	for bits := 2; bits <= 8; bits++ {
		out[fmt.Sprintf("uniform%d", bits)] = quant.Pack(w, bits)
	}
	out["nf4"] = quant.PackNF(w, quant.NFScheme{Bits: 4, BlockSize: 64})
	out["nf4-b40"] = quant.PackNF(w, quant.NFScheme{Bits: 4, BlockSize: 40})
	out["nf2-b20"] = quant.PackNF(w, quant.NFScheme{Bits: 2, BlockSize: 20})
	out["nf3-whole"] = quant.PackNF(w, quant.NFScheme{Bits: 3})
	out["nf5"] = quant.PackNF(w, quant.NFScheme{Bits: 5, BlockSize: 64})
	return out
}

func bitwiseEqual(t *testing.T, name string, got, want *tensor.Tensor) {
	t.Helper()
	if len(got.Data) != len(want.Data) {
		t.Fatalf("%s: length %d vs %d", name, len(got.Data), len(want.Data))
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d differs bitwise: %x vs %x (%v vs %v)",
				name, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]), got.Data[i], want.Data[i])
		}
	}
}

// checkPackedMatMul asserts MatMulPackedInto(a, p) == MatMulInto(a,
// p.Unpack()) bit for bit. out starts as NaN: the kernel must overwrite
// every element, not accumulate into what it finds.
func checkPackedMatMul(t *testing.T, name string, a *tensor.Tensor, p packedVariant, scratch *tensor.PackedScratch) {
	t.Helper()
	_, n := p.Dims()
	want := tensor.New(a.Rows(), n)
	tensor.MatMulInto(want, a, p.Unpack())
	got := tensor.New(a.Rows(), n)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN())
	}
	tensor.MatMulPackedInto(got, a, p, scratch)
	bitwiseEqual(t, name, got, want)
}

// TestMatMulPackedBitwiseMatchesUnpack pins the fused kernel's core
// contract: MatMulPackedInto(a, p) is bitwise identical to
// MatMulInto(a, p.Unpack()) for every bit width, on shapes that take the
// word path (n a multiple of 8), shapes that cannot (ragged n: every tile
// per element, the last one narrow), and one and two activation rows —
// the fused MulVecInto and the smallest tile sweep — at each. Zero
// activations exercise the shared zero-skip.
func TestMatMulPackedBitwiseMatchesUnpack(t *testing.T) {
	shapes := [][3]int{ // m, k, n
		{1, 16, 16},
		{3, 65, 67},   // ragged: no tile is word-aligned
		{8, 128, 96},  // block multiples
		{5, 130, 257}, // > one tile each way
	}
	for _, m := range []int{1, 2} {
		for _, k := range []int{65, 256} {
			for _, n := range []int{7, 8, 67, 256} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	for _, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		a := randTensor(m, k, int64(m*1000+k))
		// Sprinkle zeros to hit the zero-skip path.
		for i := 0; i < len(a.Data); i += 7 {
			a.Data[i] = 0
		}
		w := randTensor(k, n, int64(k*1000+n))
		for name, p := range packVariants(w) {
			checkPackedMatMul(t, fmt.Sprintf("%v %s MatMulPacked", sh, name), a, p, nil)
		}
	}
}

// TestMatMulPackedSpecialActivations pins the zero skip against the
// reference's: -0 is skipped like +0 (so a ±Inf or NaN weight product
// never appears), while NaN and ±Inf activations are multiplied through —
// Inf·0-code is NaN in both kernels or in neither.
func TestMatMulPackedSpecialActivations(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	specials := []float32{negZero, float32(math.NaN()), inf, -inf, 0}
	for _, sh := range [][3]int{{1, 64, 64}, {3, 64, 64}, {1, 37, 21}, {2, 37, 21}} {
		m, k, n := sh[0], sh[1], sh[2]
		w := randTensor(k, n, 77)
		for col := 0; col < n; col += 5 {
			w.Set(k/2, col, 0) // a zero code under a non-finite activation
		}
		for si, sp := range specials {
			a := randTensor(m, k, int64(100+si))
			for i := si; i < len(a.Data); i += 9 {
				a.Data[i] = sp
			}
			a.Data[(m-1)*k+k/2] = sp
			for name, p := range packVariants(w) {
				checkPackedMatMul(t, fmt.Sprintf("%v a∋%v %s", sh, sp, name), a, p, nil)
			}
		}
	}
}

// TestMatMulPackedDeterministicAcrossProcs pins banding determinism: a
// kernel big enough to fan out must produce byte-identical output at
// GOMAXPROCS 1 and N, with shared scratch reuse across calls. n = 250 is
// ragged; n = 264 is a multiple of 8 whose even 2- and 4-way band splits
// (132, 66) are not, so it fails if a band boundary is not rounded to the
// block width.
func TestMatMulPackedDeterministicAcrossProcs(t *testing.T) {
	for _, n := range []int{250, 264} {
		m, k := 512, 96 // m·k·n ≥ parallelThreshold; n spans 4 column bands
		a := randTensor(m, k, 42)
		w := randTensor(k, n, 43)
		p := quant.Pack(w, 3)
		pn := quant.PackNF(w, quant.NFScheme{Bits: 4, BlockSize: 32})

		run := func(procs int) (*tensor.Tensor, *tensor.Tensor) {
			old := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(old)
			scratch := tensor.NewPackedScratch()
			u, un := tensor.New(m, n), tensor.New(m, n)
			tensor.MatMulPackedInto(u, a, p, scratch)
			tensor.MatMulPackedInto(un, a, pn, scratch)
			return u, un
		}
		u1, un1 := run(1)
		for _, procs := range []int{2, 4, 8} {
			uN, unN := run(procs)
			bitwiseEqual(t, fmt.Sprintf("n=%d uniform3 procs 1 vs %d", n, procs), uN, u1)
			bitwiseEqual(t, fmt.Sprintf("n=%d nf4 procs 1 vs %d", n, procs), unN, un1)
		}

		// And the parallel result must equal the serial float32 reference.
		want := tensor.New(m, n)
		tensor.MatMulInto(want, a, p.Unpack())
		bitwiseEqual(t, fmt.Sprintf("n=%d uniform3 vs unpacked reference", n), u1, want)
		tensor.MatMulInto(want, a, pn.Unpack())
		bitwiseEqual(t, fmt.Sprintf("n=%d nf4 vs unpacked reference", n), un1, want)
	}
}

// TestMatMulPackedGridIdentity is BenchmarkMatMulPackedGrid's shape as a
// test: 768 × 768 at every width plus NF4, one row (the fused MulVecInto),
// the smallest tile sweeps, a decode batch, a prefill run and one past it,
// at GOMAXPROCS 1 and 2 (from 16 rows up the call is over the fan-out
// threshold and bands its columns). The oracle is the obvious triple loop
// over Unpack — one ascending-k sum per element from +0, zero activations
// skipped — so it holds whichever kernel, Go or assembly, runs beneath.
func TestMatMulPackedGridIdentity(t *testing.T) {
	const k, n = 768, 768
	w := randTensor(k, n, 21)
	weights := map[string]packedVariant{"nf4": quant.PackNF(w, quant.NFScheme{Bits: 4, BlockSize: 64})}
	for bits := 2; bits <= 8; bits++ {
		weights[fmt.Sprintf("%db", bits)] = quant.Pack(w, bits)
	}
	for name, p := range weights {
		u := p.Unpack()
		for _, m := range []int{1, 2, 3, 8, 16, 24} {
			a := randTensor(m, k, int64(22+m))
			for i := 0; i < len(a.Data); i += 11 {
				a.Data[i] = 0
			}
			want := tensor.New(m, n)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					var s float32
					for kk := 0; kk < k; kk++ {
						if av := a.Data[i*k+kk]; av != 0 {
							s += av * u.Data[kk*n+j]
						}
					}
					want.Data[i*n+j] = s
				}
			}
			for _, procs := range []int{1, 2} {
				old := runtime.GOMAXPROCS(procs)
				got := tensor.New(m, n)
				tensor.MatMulPackedInto(got, a, p, nil)
				runtime.GOMAXPROCS(old)
				bitwiseEqual(t, fmt.Sprintf("%s m=%d procs=%d", name, m, procs), got, want)
			}
		}
	}
}

// FuzzMatMulPackedMatchesUnpack lets the engine pick the shape, the width,
// the format and the data: whatever it finds, the packed kernel equals the
// dense kernel over Unpack bit for bit. Shapes stay below the fan-out
// threshold (TestMatMulPackedDeterministicAcrossProcs owns banding). The
// seeds are one per path: fused and tiled word path, ragged width, 8-bit
// bytes, a width with no word path, NF with a scale block that is not a
// multiple of 8.
func FuzzMatMulPackedMatchesUnpack(f *testing.F) {
	f.Add(uint8(0), uint8(63), uint8(63), uint8(2), false, int64(1)) // m=1, 64×64, 4-bit: fused
	f.Add(uint8(4), uint8(39), uint8(23), uint8(0), false, int64(2)) // m=5, 2-bit: tiles
	f.Add(uint8(1), uint8(36), uint8(20), uint8(1), false, int64(3)) // 3-bit, n=21: ragged
	f.Add(uint8(0), uint8(15), uint8(31), uint8(6), false, int64(4)) // 8-bit, m=1
	f.Add(uint8(2), uint8(16), uint8(15), uint8(3), false, int64(5)) // 5-bit: per element
	f.Add(uint8(0), uint8(31), uint8(47), uint8(2), true, int64(6))  // nf4, block 12
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw, bitsRaw uint8, nf bool, seed int64) {
		m, k, n := 1+int(mRaw)%16, 1+int(kRaw)%96, 1+int(nRaw)%96
		bits := 2 + int(bitsRaw)%7
		g := tensor.NewRNG(seed)
		a, w := g.Normal(0, 1, m, k), g.Normal(0, 0.5, k, n)
		for i := int(uint64(seed) % 5); i < len(a.Data); i += 5 {
			a.Data[i] = 0
		}
		var p packedVariant = quant.Pack(w, bits)
		if nf {
			p = quant.PackNF(w, quant.NFScheme{Bits: bits, BlockSize: 4 * int(uint64(seed)%32)})
		}
		checkPackedMatMul(t, fmt.Sprintf("(%d,%d,%d) bits %d nf %v", m, k, n, bits, nf), a, p, nil)
	})
}

// TestMatMulPackedScratchReuse pins that a warmed scratch makes repeated
// packed matmuls allocation-free — the property the decode hot loop's
// 0 allocs/token depends on.
func TestMatMulPackedScratchReuse(t *testing.T) {
	a := randTensor(4, 96, 1)
	w := randTensor(96, 80, 2)
	p := quant.Pack(w, 4)
	out := tensor.New(4, 80)
	scratch := tensor.NewPackedScratch()
	tensor.MatMulPackedInto(out, a, p, scratch) // warm
	allocs := testing.AllocsPerRun(50, func() {
		tensor.MatMulPackedInto(out, a, p, scratch)
	})
	if allocs != 0 {
		t.Fatalf("warmed packed matmul allocates %.1f/op, want 0", allocs)
	}
}

// TestPoolAdopt pins Adopt/Put symmetry: adopting then releasing a
// buffer nets zero BytesInUse, and the drop equals the adopted bytes —
// the accounting PackModel's weight release is measured with.
func TestPoolAdopt(t *testing.T) {
	pool := tensor.NewPool()
	w := tensor.New(32, 16)
	pool.Adopt(w)
	if got := pool.Stats().BytesInUse; got != 32*16*4 {
		t.Fatalf("adopted bytes %d, want %d", got, 32*16*4)
	}
	pool.Put(w)
	if got := pool.Stats().BytesInUse; got != 0 {
		t.Fatalf("bytes in use after Put %d, want 0", got)
	}
	// The released buffer must be reusable by Get.
	u := pool.Get(16, 32)
	if pool.Stats().Hits != 1 {
		t.Fatalf("Get after adopted Put missed the free list")
	}
	pool.Put(u)
}
