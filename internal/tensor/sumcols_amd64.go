package tensor

// useAVX2 is read once at init; there is no switch to turn it off.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func sumColsAVX2(out *float32, n int, a *float32, aStride int, b *float32, bStride int, k int)

//go:noescape
func adamWAVX2(w, grad, m, v *float32, n int, c AdamWStep)
