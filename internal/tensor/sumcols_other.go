//go:build !amd64

package tensor

const useAVX2 = false

// sumColsAVX2 and adamWAVX2 exist on amd64 only; useAVX2 is constant false
// here, so their calls are dead code that still has to type-check.
func sumColsAVX2(out *float32, n int, a *float32, aStride int, b *float32, bStride int, k int) {}

func adamWAVX2(w, grad, m, v *float32, n int, c AdamWStep) {}
