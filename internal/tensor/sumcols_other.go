//go:build !amd64

package tensor

const useAVX2, useExp = false, false

// The assembly kernels exist on amd64 only; useAVX2 and useExp are constant
// false here, so their calls are dead code that still has to type-check.
func cpuHasFMA() bool { return false }

func sumColsAVX2(out *float32, n int, a *float32, aStride int, b *float32, bStride int, k int) {}

func adamWAVX2(w, grad, m, v *float32, n int, c AdamWStep) {}

func addAVX2(dst, src *float32, n int) {}

func expAVX2(dst, x *float64, n int) int { return 0 }

func sigmoidAVX2(dst, x, y *float32, n, op int) int { return 0 }

func expShiftAVX2(dst, x *float32, n int, m float32, sum float64) (done int, total float64) {
	return 0, 0
}
