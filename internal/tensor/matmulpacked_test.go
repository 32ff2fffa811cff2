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

// packVariants returns every packed representation under test for one
// weight matrix, keyed by name.
func packVariants(w *tensor.Tensor) map[string]interface {
	tensor.PackedMat
	Unpack() *tensor.Tensor
} {
	out := map[string]interface {
		tensor.PackedMat
		Unpack() *tensor.Tensor
	}{}
	for bits := 2; bits <= 8; bits++ {
		out[fmt.Sprintf("uniform%d", bits)] = quant.Pack(w, bits)
	}
	out["nf4"] = quant.PackNF(w, quant.NFScheme{Bits: 4, BlockSize: 64})
	out["nf3-whole"] = quant.PackNF(w, quant.NFScheme{Bits: 3})
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

// TestMatMulPackedBitwiseMatchesUnpack pins the fused kernel's core
// contract: MatMulPackedInto(a, p) is bitwise identical to
// MatMulInto(a, p.Unpack()) for every bit width and odd
// (non-block-multiple) shapes. Zero activations exercise the shared
// zero-skip.
func TestMatMulPackedBitwiseMatchesUnpack(t *testing.T) {
	shapes := [][3]int{ // m, k, n
		{1, 16, 16},
		{3, 65, 67},   // straddles every block boundary oddly
		{8, 128, 96},  // block multiples
		{5, 130, 257}, // > one tile each way
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
			want := tensor.New(m, n)
			tensor.MatMulInto(want, a, p.Unpack())
			got := tensor.New(m, n)
			tensor.MatMulPackedInto(got, a, p, nil)
			bitwiseEqual(t, fmt.Sprintf("%v %s MatMulPacked", sh, name), got, want)
		}
	}
}

// TestMatMulPackedDeterministicAcrossProcs pins banding determinism: a
// kernel big enough to fan out must produce byte-identical output at
// GOMAXPROCS 1 and N, with shared scratch reuse across calls.
func TestMatMulPackedDeterministicAcrossProcs(t *testing.T) {
	m, k, n := 256, 96, 250 // m·k·n ≥ parallelThreshold; n spans 4 column bands
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
	uN, unN := run(runtime.NumCPU())
	bitwiseEqual(t, "uniform3 procs 1 vs N", uN, u1)
	bitwiseEqual(t, "nf4 procs 1 vs N", unN, un1)

	// And the parallel result must equal the serial float32 reference.
	want := tensor.New(m, n)
	tensor.MatMulInto(want, a, p.Unpack())
	bitwiseEqual(t, "uniform3 vs unpacked reference", u1, want)
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
