package tensor_test

import (
	"fmt"
	"syscall"
	"testing"
	"unsafe"

	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// guarded returns n bytes of fresh memory whose last byte is the last byte
// before a PROT_NONE page: a load or store one byte past the slice is a
// fault, not a silent read of whatever the allocator put there.
func guarded(t *testing.T, n int) []byte {
	t.Helper()
	page := syscall.Getpagesize()
	size := (n+page-1)/page*page + page
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap %d bytes: %v", size, err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory; nothing to do about a failed unmap
	if err := syscall.Mprotect(mem[size-page:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect guard page: %v", err)
	}
	return mem[size-page-n : size-page : size-page]
}

// guardedFloats copies src flush against a guard page.
func guardedFloats(t *testing.T, src []float32) []float32 {
	t.Helper()
	if len(src) == 0 {
		return nil
	}
	mem := guarded(t, 4*len(src))
	dst := unsafe.Slice((*float32)(unsafe.Pointer(&mem[0])), len(src))
	copy(dst, src)
	return dst
}

// TestKernelsStayInsideTheirOperands runs the dense and the packed kernels,
// at every uniform width, the AdamW update, the gradient accumulation, the
// kernels over the vector exp (SiLU, SiLUMul, SiLUGrad, ExpShift) and
// quant's fake-quant in place, with every operand — a, b, out, Codes,
// Scale; w, g, m, v; dst, x, y — ending
// exactly at an unmapped page, and checks the results against the same calls
// over ordinary memory. A kernel that loads 4 bytes of a 3-byte block row,
// or 32 where 8 columns are left, dies here with SIGSEGV. k and n cover one
// block, a ragged quad, quad + one, and many, and n one and eight whole
// 32-column tiles and one, two and four whole 64-column blocks as well; m = 1
// is the fused MulVecInto at one row, m = 2 at two. With the AVX-512 kernels
// on, 2- to 4-bit codes run the fused eight-row kernel over the guarded codes
// and activations and into the guarded output at m = 8 and 16, over a padded
// group at m ∈ {3, 4, 5, 6}, and over whole groups and then one row or a
// padded three at m ∈ {17, 19}; with them off, m = 3 is two rows and then
// one. The rest run the tile decode, under the AVX-512 tile kernel's whole
// groups of four rows where it is on, and m ∈ {2, 6} put the dense two-row
// pass on the last two rows, so at n a multiple of 64 its last column is
// flush against the guard page — each matmul under every kernel of this
// host.
func TestKernelsStayInsideTheirOperands(t *testing.T) {
	t.Logf("kernel path: %s", tensor.KernelPath())
	dims := []int{8, 24, 40, 264}
	for _, n := range []int{3, 4, 8, 13, 24, 37, 264} {
		x, y := randTensor(1, n, int64(n)).Data, randTensor(1, n, int64(n+1)).Data
		gx, gy := guardedFloats(t, x), guardedFloats(t, y)
		want, got := make([]float32, n), guardedFloats(t, make([]float32, n))
		check := func(name string) {
			t.Helper()
			bitwiseEqual(t, fmt.Sprintf("guarded %s n=%d", name, n), tensor.FromSlice(got, 1, n), tensor.FromSlice(want, 1, n))
		}
		tensor.SiLU(want, x)
		tensor.SiLU(got, gx)
		check("SiLU")
		tensor.SiLUGrad(want, x, y)
		tensor.SiLUGrad(got, gx, gy)
		check("SiLUGrad")
		if s, gs := tensor.ExpShift(want, x, 0.25), tensor.ExpShift(got, gx, 0.25); s != gs {
			t.Fatalf("guarded ExpShift n=%d: sum %v, want %v", n, gs, s)
		}
		check("ExpShift")
		tensor.FromSlice(want, 1, n).AddInPlace(tensor.FromSlice(y, 1, n))
		tensor.FromSlice(got, 1, n).AddInPlace(tensor.FromSlice(gy, 1, n))
		check("AddInPlace")
		tensor.MulInto(want, x, y)
		tensor.MulInto(got, gx, gy)
		check("MulInto")
		tensor.FromSlice(want, 1, n).ScaleInPlace(-0.75)
		tensor.FromSlice(got, 1, n).ScaleInPlace(-0.75)
		check("ScaleInPlace")
		tensor.SiLUMul(x, y)
		tensor.SiLUMul(gx, gy)
		copy(want, x)
		copy(got, gx)
		check("SiLUMul")
	}
	for _, n := range append(dims, 13) {
		c := tensor.NewAdamWStep(1, 0.9, 0.999, 1e-8, 0.01, 0.1)
		want := [4][]float32{}
		got := [4][]float32{}
		for i := range want {
			want[i] = randTensor(1, n, int64(n+i)).Data
			if i == 3 {
				for j, x := range want[i] {
					want[i][j] = x * x // v ≥ 0
				}
			}
			got[i] = guardedFloats(t, want[i])
		}
		tensor.AdamW(want[0], want[1], want[2], want[3], c)
		tensor.AdamW(got[0], got[1], got[2], got[3], c)
		for i, name := range []string{"w", "g", "m", "v"} {
			bitwiseEqual(t, fmt.Sprintf("guarded AdamW n=%d %s", n, name),
				tensor.FromSlice(got[i], 1, n), tensor.FromSlice(want[i], 1, n))
		}
	}
	for _, rows := range []int{1, 17} {
		for _, cols := range []int{8, 13, 24, 264} {
			s := quant.Scheme{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 16}
			w := randTensor(rows, cols, int64(rows*cols))
			want := w.Clone()
			s.FakeQuantInPlace(want)
			got := tensor.FromSlice(guardedFloats(t, w.Data), rows, cols)
			s.FakeQuantInPlace(got)
			bitwiseEqual(t, fmt.Sprintf("guarded FakeQuantInPlace %d×%d", rows, cols), got, want)
		}
	}
	tensor.EachTileMode(func(path string) {
		for _, k := range dims {
			for _, n := range append(dims, 32, 64, 128, 256) {
				for _, m := range []int{1, 2, 3, 4, 5, 6, 8, 16, 17, 19} {
					a, w := randTensor(m, k, int64(k+n)), randTensor(k, n, int64(k*n))
					want := tensor.New(m, n)
					ga := tensor.FromSlice(guardedFloats(t, a.Data), m, k)
					gw := tensor.FromSlice(guardedFloats(t, w.Data), k, n)
					got := tensor.FromSlice(guardedFloats(t, want.Data), m, n)
					name := fmt.Sprintf("%s (%d,%d,%d)", path, m, k, n)

					tensor.MatMulInto(want, a, w)
					tensor.MatMulInto(got, ga, gw)
					bitwiseEqual(t, "guarded MatMulInto "+name, got, want)

					aT := tensor.New(k, m)
					tensor.TransposeInto(aT, a)
					gaT := tensor.FromSlice(guardedFloats(t, aT.Data), k, m)
					tensor.TMatMulInto(got, gaT, gw)
					bitwiseEqual(t, "guarded TMatMulInto "+name, got, want)

					for _, bits := range []int{2, 3, 4, 8} {
						p := quant.Pack(w, bits)
						gp := &quant.Packed{Bits: bits, Rows: k, Cols: n, Scale: guardedFloats(t, p.Scale)}
						gp.Codes = guarded(t, len(p.Codes))
						copy(gp.Codes, p.Codes)
						tensor.MatMulPackedInto(want, a, p, nil)
						tensor.MatMulPackedInto(got, ga, gp, nil)
						bitwiseEqual(t, fmt.Sprintf("guarded MatMulPackedInto %s@%db", name, bits), got, want)
					}
				}
			}
		}
	})
}
