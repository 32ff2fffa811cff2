//go:build !amd64

package quant

const useAVX2 = false

// The AVX2 kernels exist on amd64 only; useAVX2 is constant false here, so
// these calls are dead code that still has to type-check.
func (p *Packed) mulVecSIMD(out, a []float32, colLo, colHi int)            {}
func (p *Packed) decodeSIMD(dst []float32, rowLo, rowHi, colLo, colHi int) {}
