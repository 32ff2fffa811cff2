// Packed-kernel tests live in an external test package so they can build
// real quant.Packed matrices; the quant package imports tensor, so the
// internal package cannot.
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

// packVariants returns every packed width under test for one weight
// matrix, keyed by name.
func packVariants(w *tensor.Tensor) map[string]packedVariant {
	out := map[string]packedVariant{}
	for bits := 2; bits <= 8; bits++ {
		out[fmt.Sprintf("uniform%d", bits)] = quant.Pack(w, bits)
	}
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
// the fused MulVecInto at one row and at two (tiles where a format has no
// two-row kernel) — at each; then the row counts the eight-row kernel
// splits: a padded group alone (3, 4, 5), whole groups (8, 16, 24) and
// groups with one row left (9, 17). Zero activations exercise the shared
// zero-skip.
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
	for _, m := range []int{3, 4, 5, 8, 9, 16, 17, 24} {
		for _, n := range []int{40, 96, 264} {
			shapes = append(shapes, [3]int{m, 65, n})
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
// Inf·0-code is NaN in both kernels or in neither. One and two rows go
// through the fused one- and two-row kernels; with the AVX-512 kernels on,
// from three rows up 2- to 4-bit codes go through the fused eight-row
// kernel, a last group of 3–7 rows padded with zero rows, and 8-bit codes
// through the tile kernel; every shape runs under every kernel of this host.
// Then the fused kernels' own skip: at 2, 3, 4 and 8 bits, against a column
// whose Inf scale makes every weight in it ±Inf or NaN, one row is all ±0
// where the other rows are nonzero, so that column of the zero row is +0
// only if every one of its products is skipped; its last code row, which at
// 2 and 3 bits the band that ends the stream decodes in Go, holds each
// special value in turn. At 3, 5 and 13 rows the zero row sits inside a
// padded group, beside the padding.
func TestMatMulPackedSpecialActivations(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	specials := []float32{negZero, float32(math.NaN()), inf, -inf, 0}
	tensor.EachTileMode(func(path string) {
		for _, sh := range [][3]int{{1, 64, 64}, {2, 64, 64}, {3, 64, 64}, {1, 37, 21}, {2, 37, 21}, {2, 37, 72}, {3, 37, 72}, {16, 64, 64}, {19, 37, 72}, {128, 40, 40},
			{4, 64, 96}, {5, 37, 72}, {8, 37, 72}, {9, 64, 96}, {17, 37, 72}, {24, 64, 96}} {
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
					checkPackedMatMul(t, fmt.Sprintf("%s %v a∋%v %s", path, sh, sp, name), a, p, nil)
				}
			}
		}
	})
	for _, sh := range [][3]int{{2, 64, 64}, {3, 64, 64}, {2, 37, 72}, {3, 37, 72}, {5, 37, 72}, {8, 64, 96}, {13, 37, 72}} {
		m, k, n := sh[0], sh[1], sh[2]
		w := randTensor(k, n, 78)
		w.Set(k/3, 5, inf)
		zeroRows := []int{0, 1}
		if m > 2 {
			zeroRows = append(zeroRows, m-1)
		}
		for _, bits := range []int{2, 3, 4, 8} {
			p := quant.Pack(w, bits)
			for si, sp := range specials {
				for _, row := range zeroRows {
					a := randTensor(m, k, int64(200+si))
					for kk := 0; kk < k; kk++ {
						a.Set(row, kk, []float32{0, negZero}[kk%2])
					}
					a.Set(row, k-1, sp)
					checkPackedMatMul(t, fmt.Sprintf("%v %d-bit row %d a∋%v", sh, bits, row, sp), a, p, nil)
				}
			}
		}
	}
}

// TestMatMulPackedDeterministicAcrossProcs pins banding determinism: a
// kernel big enough to fan out must produce byte-identical output at
// GOMAXPROCS 1 and N, with shared scratch reuse across calls. Bands are
// whole 64-column blocks: n = 250 is ragged, and n = 264 is a multiple of 8
// whose even 2- and 4-way splits (132, 66) are not, so it fails if a band
// boundary is not rounded to a block.
func TestMatMulPackedDeterministicAcrossProcs(t *testing.T) {
	for _, n := range []int{250, 264} {
		m, k := 512, 96 // m·k·n ≥ parallelThreshold; n spans 4 column bands
		a := randTensor(m, k, 42)
		w := randTensor(k, n, 43)
		p := quant.Pack(w, 3)

		run := func(procs int) *tensor.Tensor {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			u := tensor.New(m, n)
			tensor.MatMulPackedInto(u, a, p, tensor.NewPackedScratch())
			return u
		}
		u1 := run(1)
		for _, procs := range []int{2, 4, 8} {
			bitwiseEqual(t, fmt.Sprintf("n=%d uniform3 procs 1 vs %d", n, procs), run(procs), u1)
		}

		// And the parallel result must equal the serial float32 reference.
		want := tensor.New(m, n)
		tensor.MatMulInto(want, a, p.Unpack())
		bitwiseEqual(t, fmt.Sprintf("n=%d uniform3 vs unpacked reference", n), u1, want)
	}
}

// TestMatMulPackedGridIdentity is BenchmarkMatMulPackedGrid's shape as a
// test: 768 × 768 at every width, one row and two (the fused
// MulVecInto), three (two rows and one), a decode batch, a prefill run and
// one past it,
// at GOMAXPROCS 1 and 2 (from 16 rows up the call is over the fan-out
// threshold and bands its columns). The oracle is the obvious triple loop
// over Unpack — one ascending-k sum per element from +0, zero activations
// skipped — so it holds whichever kernel, Go or assembly, runs beneath.
func TestMatMulPackedGridIdentity(t *testing.T) {
	const k, n = 768, 768
	w := randTensor(k, n, 21)
	for name, p := range packVariants(w) {
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

// FuzzMatMulPackedMatchesUnpack lets the engine pick the shape, the width
// and the data: whatever it finds, the packed kernel equals the dense
// kernel over Unpack bit for bit. Shapes stay below the fan-out threshold
// (TestMatMulPackedDeterministicAcrossProcs owns banding). The seeds are
// one per path: fused and tiled word path, ragged width, 8-bit bytes, a
// width with no word path, 2-bit fused over an odd number of blocks, the
// AVX-512 tile kernel with rows left over, and the fused two-row kernel
// alone (m = 2) and beside a one-row pass (m = 3).
// Each input runs under every kernel of this host.
func FuzzMatMulPackedMatchesUnpack(f *testing.F) {
	f.Add(uint8(0), uint8(63), uint8(63), uint8(2), int64(1))  // m=1, 64×64, 4-bit: fused
	f.Add(uint8(4), uint8(39), uint8(23), uint8(0), int64(2))  // m=5, 2-bit: tiles
	f.Add(uint8(1), uint8(36), uint8(20), uint8(1), int64(3))  // 3-bit, n=21: ragged
	f.Add(uint8(0), uint8(15), uint8(31), uint8(6), int64(4))  // 8-bit, m=1
	f.Add(uint8(2), uint8(16), uint8(15), uint8(3), int64(5))  // 5-bit: per element
	f.Add(uint8(0), uint8(31), uint8(39), uint8(0), int64(6))  // m=1, 2-bit, 5 blocks: fused, odd band
	f.Add(uint8(18), uint8(63), uint8(95), uint8(2), int64(7)) // m=19, 4-bit: tile kernel, 3 rows left
	f.Add(uint8(1), uint8(39), uint8(71), uint8(1), int64(8))  // m=2, 3-bit, 9 blocks: two-row kernel, short last block
	f.Add(uint8(2), uint8(63), uint8(39), uint8(6), int64(9))  // m=3, 8-bit: two-row kernel and one row
	f.Fuzz(func(t *testing.T, mRaw, kRaw, nRaw, bitsRaw uint8, seed int64) {
		m, k, n := 1+int(mRaw)%24, 1+int(kRaw)%96, 1+int(nRaw)%96
		bits := 2 + int(bitsRaw)%7
		g := tensor.NewRNG(seed)
		a, w := g.Normal(0, 1, m, k), g.Normal(0, 0.5, k, n)
		for i := int(uint64(seed) % 5); i < len(a.Data); i += 5 {
			a.Data[i] = 0
		}
		p := quant.Pack(w, bits)
		tensor.EachTileMode(func(path string) {
			checkPackedMatMul(t, fmt.Sprintf("%s (%d,%d,%d) bits %d", path, m, k, n, bits), a, p, nil)
		})
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
