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

// quantizeSlice fake-quantizes every stride-th element of src into dst on
// the symmetric grid that spans [lo, hi].
func (s Scheme) quantizeSlice(dst, src []float32, stride int, lo, hi float32) {
	qmax := float64(int(1)<<(s.Bits-1)) - 1 // e.g. 7 for 4-bit
	absMax := math.Max(math.Abs(float64(lo)), math.Abs(float64(hi)))
	if absMax == 0 {
		for i := 0; i < len(src); i += stride {
			dst[i] = 0
		}
		return
	}
	scale := absMax / qmax
	for i := 0; i < len(src); i += stride {
		// + 0 turns a -0 input into +0, so a zero weight of either sign
		// dequantizes to +0.
		q := math.Round(float64(src[i])/scale + 0)
		if q < -qmax {
			q = -qmax
		}
		if q > qmax {
			q = qmax
		}
		dst[i] = float32(q * scale)
	}
}

func minMaxStrided(src []float32, stride int) (lo, hi float32) {
	lo, hi = float32(math.Inf(1)), float32(math.Inf(-1))
	for i := 0; i < len(src); i += stride {
		v := src[i]
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// FakeQuant returns a new tensor equal to t passed through
// quantize→dequantize under the scheme. t must be rank 2.
func (s Scheme) FakeQuant(t *tensor.Tensor) *tensor.Tensor {
	out := t.Clone()
	s.fakeQuantInto(out, t)
	return out
}

// FakeQuantInPlace overwrites t with its fake-quantized version, FakeQuant's
// bits without a copy of t.
func (s Scheme) FakeQuantInPlace(t *tensor.Tensor) { s.fakeQuantInto(t, t) }

// fakeQuantInto writes t's fake-quantized values into out, which has t's
// shape. out may be t: each group reads its min/max before it writes, and
// writes only its own elements.
func (s Scheme) fakeQuantInto(out, t *tensor.Tensor) {
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
	for c := 0; c < cols; c++ {
		for r0 := 0; r0 < rows; r0 += group {
			r1 := r0 + group
			if r1 > rows {
				r1 = rows
			}
			// strided view of column c, rows [r0, r1)
			src := t.Data[r0*cols+c : (r1-1)*cols+c+1]
			dst := out.Data[r0*cols+c : (r1-1)*cols+c+1]
			lo, hi := minMaxStrided(src, cols)
			s.quantizeSlice(dst, src, cols, lo, hi)
		}
	}
}
