// Package quant implements the quantizer used by Edge-LLM's layerwise
// unified compression (LUC): symmetric quantization at 2–8 bits with one
// scale per channel, or per group of rows within a channel; the fake-quant
// (quantize→dequantize) transform the compression pass applies to frozen
// backbone weights; and Packed, the one bit-packed format packed weights
// execute in: symmetric codes with one scale per column.
package quant

import (
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// Scheme describes one quantization configuration. The one shape in use is
// symmetric and per-channel; Validate rejects any other.
type Scheme struct {
	// Bits is the integer width, 2..8.
	Bits int
	// Symmetric must be true: signed symmetric quantization (zero-point 0),
	// so zeros, and with them pruning masks, survive quantization.
	Symmetric bool
	// PerChannel must be true: one scale per output channel (column of a
	// (in,out) weight matrix).
	PerChannel bool
	// GroupSize, when > 0, splits each channel's input dimension into
	// groups of this many rows with independent scales (GPTQ-style).
	GroupSize int
}

// Validate reports the first invalid field.
func (s Scheme) Validate() error {
	if s.Bits < 2 || s.Bits > 8 {
		return fmt.Errorf("quant: bits must be in [2,8], got %d", s.Bits)
	}
	if !s.Symmetric || !s.PerChannel {
		return fmt.Errorf("quant: only symmetric per-channel schemes are supported")
	}
	if s.GroupSize < 0 {
		return fmt.Errorf("quant: negative group size %d", s.GroupSize)
	}
	return nil
}

// String renders the scheme compactly, e.g. "int4-sym-pc-g32".
func (s Scheme) String() string {
	out := fmt.Sprintf("int%d", s.Bits)
	if s.Symmetric {
		out += "-sym"
	}
	if s.PerChannel {
		out += "-pc"
	}
	if s.GroupSize > 0 {
		out += fmt.Sprintf("-g%d", s.GroupSize)
	}
	return out
}

// FakeQuantInPlace overwrites t with t passed through quantize→dequantize
// under the scheme. t must be rank 2.
func (s Scheme) FakeQuantInPlace(t *tensor.Tensor) { s.fakeQuantInto(t, t, useAVX2) }

// fakeQuantInto writes t's fake-quantized values into out, which has t's
// shape. out may be t: each strip of columns reads its group's |max| before
// it writes, and writes only its own elements. Each group of rows is one
// row-major strip: with simd, whole groups of 8 columns go to fakeQuantAVX2
// (DESIGN.md §6) and only what cols%8 leaves over to fakeQuantGo, the
// definition; without, fakeQuantGo takes every column.
func (s Scheme) fakeQuantInto(out, t *tensor.Tensor, simd bool) {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	if t.Rank() != 2 {
		panic(fmt.Sprintf("quant: fake-quant needs a rank-2 tensor, got shape %v", t.Shape))
	}
	rows, cols := t.Rows(), t.Cols()
	group := s.GroupSize
	if group <= 0 || group > rows {
		group = rows
	}
	qmax := float64(int(1)<<(s.Bits-1)) - 1 // e.g. 7 for 4-bit
	for r0 := 0; r0 < rows; r0 += group {
		n := min(group, rows-r0)
		src, dst := t.Data[r0*cols:(r0+n)*cols], out.Data[r0*cols:(r0+n)*cols]
		n8 := 0
		if simd {
			if n8 = cols &^ 7; n8 > 0 {
				fakeQuantAVX2(&dst[0], &src[0], n, n8, cols, qmax)
			}
		}
		if n8 < cols {
			fakeQuantGo(dst[n8:], src[n8:], n, cols-n8, cols, qmax)
		}
	}
}

// fakeQuantGo fake-quantizes columns [0, n) of rows rows, stride elements
// apart, from src into dst (which may be src) on the symmetric grid
// ±qmax·scale, one scale per column. It is the definition fakeQuantAVX2
// follows bit for bit. A strip of up to 64 columns at a time:
//
//	m     = max |v| over the column's non-NaN values, −Inf if it has none
//	scale = |m| / qmax                         float64; an all-NaN column's is +Inf
//	out   = float32(clamp(round(v/scale + 0), ±qmax) · scale)
//
// round is math.Round, half away from zero; + 0 turns −0 into +0, so a zero
// weight of either sign dequantizes to +0. A column whose |max| is 0 writes
// +0 everywhere, NaNs included.
func fakeQuantGo(dst, src []float32, rows, n, stride int, qmax float64) {
	var colMax [64]float32
	var scale [64]float64
	for c0 := 0; c0 < n; c0 += len(colMax) {
		w := min(n-c0, len(colMax))
		m := colMax[:w]
		for c := range m {
			m[c] = float32(math.Inf(-1))
		}
		for r := 0; r < rows; r++ {
			for c, v := range src[r*stride+c0 : r*stride+c0+w] {
				// |v| by its bits; a NaN compares false and is skipped.
				if a := math.Float32frombits(math.Float32bits(v) &^ (1 << 31)); a > m[c] {
					m[c] = a
				}
			}
		}
		for c, mc := range m {
			scale[c] = math.Abs(float64(mc)) / qmax
		}
		for r := 0; r < rows; r++ {
			out := dst[r*stride+c0 : r*stride+c0+w]
			for c, v := range src[r*stride+c0 : r*stride+c0+w] {
				sc := scale[c]
				if sc == 0 {
					out[c] = 0
					continue
				}
				q := math.Round(float64(v)/sc + 0)
				if q < -qmax {
					q = -qmax
				}
				if q > qmax {
					q = qmax
				}
				out[c] = float32(q * sc)
			}
		}
	}
}
