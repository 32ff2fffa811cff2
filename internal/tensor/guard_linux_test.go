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
// at every uniform width, with every operand — a, b, out, Codes, Scale —
// ending exactly at an unmapped page, and checks the results against the
// same calls over ordinary memory. A kernel that loads 4 bytes of a 3-byte
// block row, or 32 where 8 columns are left, dies here with SIGSEGV. k and
// n cover one block, a ragged quad, quad + one, and many; m = 1 is the fused
// MulVecInto, m = 3 the tile decode and sweep.
func TestKernelsStayInsideTheirOperands(t *testing.T) {
	t.Logf("kernel path: %s", tensor.KernelPath())
	dims := []int{8, 24, 40, 264}
	for _, k := range dims {
		for _, n := range dims {
			for _, m := range []int{1, 3} {
				a, w := randTensor(m, k, int64(k+n)), randTensor(k, n, int64(k*n))
				want := tensor.New(m, n)
				ga := tensor.FromSlice(guardedFloats(t, a.Data), m, k)
				gw := tensor.FromSlice(guardedFloats(t, w.Data), k, n)
				got := tensor.FromSlice(guardedFloats(t, want.Data), m, n)

				tensor.MatMulInto(want, a, w)
				tensor.MatMulInto(got, ga, gw)
				bitwiseEqual(t, fmt.Sprintf("guarded MatMulInto (%d,%d,%d)", m, k, n), got, want)

				aT := tensor.Transpose(a)
				gaT := tensor.FromSlice(guardedFloats(t, aT.Data), k, m)
				tensor.TMatMulInto(got, gaT, gw)
				bitwiseEqual(t, fmt.Sprintf("guarded TMatMulInto (%d,%d,%d)", m, k, n), got, want)

				for _, bits := range []int{2, 3, 4, 8} {
					p := quant.Pack(w, bits)
					gp := &quant.Packed{Bits: bits, Rows: k, Cols: n, Scale: guardedFloats(t, p.Scale)}
					gp.Codes = guarded(t, len(p.Codes))
					copy(gp.Codes, p.Codes)
					tensor.MatMulPackedInto(want, a, p, nil)
					tensor.MatMulPackedInto(got, ga, gp, nil)
					bitwiseEqual(t, fmt.Sprintf("guarded MatMulPackedInto (%d,%d,%d)@%db", m, k, n, bits), got, want)
				}
			}
		}
	}
}
