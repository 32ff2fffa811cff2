//go:build !amd64

package quant

const useAVX2 = false

// useAVX512 is a variable only so that tests can switch it as on amd64.
var useAVX512 = false

// The AVX2 kernels exist on amd64 only; useAVX2 is constant false here, so
// these calls are dead code that still has to type-check.
func (p *Packed) mulVecSIMD(out []float32, outStride int, a []float32, rows, colLo, colHi int) {}
func (p *Packed) decodeSIMD(dst []float32, rowLo, rowHi, colLo, colHi int)                     {}
func fakeQuantAVX2(dst, src *float32, rows, n, stride int, qmax float64)                       {}
