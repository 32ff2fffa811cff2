//go:build !amd64

package tensor

const useAVX2, useExp = false, false

// The assembly kernels exist on amd64 only; useAVX2 and useExp are constant
// false here and useAVX512 is false (it needs useAVX2), so their calls never
// run but still have to type-check.
func cpuHasFMA() bool { return false }

func cpuHasAVX512F() bool { return false }

func sumTileAVX512(out *float32, outStride, n int, a *float32, aRow, aStride int, b *float32, bStride, k int) {
}

func sumPairAVX512(out *float32, outStride, n int, a *float32, aRow, aStride int, b *float32, bStride, k int) {
}

func sumColsAVX2(out *float32, n int, a *float32, aStride int, b *float32, bStride int, k int) {}

func adamWAVX2(w, grad, m, v *float32, n int, c AdamWStep) {}

func addAVX2(dst, src *float32, n int) {}

func transpose8AVX2(dst *float32, ld int, src *float32, ls int, blocks int) {}

func mulAVX2(dst, a, b *float32, n int) {}

func scaleAVX2(dst *float32, n int, s float32) {}

func expAVX2(dst, x *float64, n int) int { return 0 }

func sigmoidAVX2(dst, x, y *float32, n, op int) int { return 0 }

func expShiftAVX2(dst, x *float32, n int, m float32, sum float64) (done int, total float64) {
	return 0, 0
}
