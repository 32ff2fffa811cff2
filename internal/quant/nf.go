package quant

import (
	"fmt"
	"math"
	"sort"

	"edgellm/internal/tensor"
)

// NFScheme is a NormalFloat ("NF4"-style) nonuniform quantizer: codes are
// the quantiles of a standard normal distribution, scaled per block by the
// block's absolute maximum. Because trained weights are approximately
// Gaussian, the codebook places resolution where the mass is, beating a
// uniform grid at equal bit-width. This is an extension beyond the paper's
// uniform LUC quantizers; the ablation benches compare the two.
type NFScheme struct {
	// Bits is the code width, 2..8 (2^Bits codebook entries).
	Bits int
	// BlockSize is the number of consecutive elements sharing one absmax
	// scale (0 = whole tensor).
	BlockSize int
}

// Validate reports the first invalid field.
func (s NFScheme) Validate() error {
	if s.Bits < 2 || s.Bits > 8 {
		return fmt.Errorf("quant: NF bits must be in [2,8], got %d", s.Bits)
	}
	if s.BlockSize < 0 {
		return fmt.Errorf("quant: negative NF block size %d", s.BlockSize)
	}
	return nil
}

// String renders the scheme, e.g. "nf4-b64".
func (s NFScheme) String() string {
	out := fmt.Sprintf("nf%d", s.Bits)
	if s.BlockSize > 0 {
		out += fmt.Sprintf("-b%d", s.BlockSize)
	}
	return out
}

// Codebook returns the 2^Bits−1 code values in [-1, 1]: positive standard-
// normal quantiles normalised so the largest is exactly 1, mirrored to the
// negative side, with an exact zero in the middle. The symmetric
// construction (one code fewer than the asymmetric NF4 original) makes
// fake-quantization idempotent and zero-preserving, matching the
// invariants of the uniform schemes so LUC can treat them uniformly.
func (s NFScheme) Codebook() []float32 {
	n := 1 << s.Bits
	k := n/2 - 1 // positive levels
	pos := make([]float64, k)
	for i := 1; i <= k; i++ {
		p := 0.5 + 0.5*float64(i)/float64(k+1)
		pos[i-1] = normalQuantile(p)
	}
	maxQ := pos[k-1]
	out := make([]float32, 0, 2*k+1)
	for i := k - 1; i >= 0; i-- {
		out = append(out, float32(-pos[i]/maxQ))
	}
	out = append(out, 0)
	for i := 0; i < k; i++ {
		out = append(out, float32(pos[i]/maxQ))
	}
	return out
}

// normalQuantile is the inverse CDF of the standard normal.
func normalQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// FakeQuant maps every element to its nearest codebook value scaled by the
// block absmax.
func (s NFScheme) FakeQuant(t *tensor.Tensor) *tensor.Tensor {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	codes := s.Codebook()
	out := t.Clone()
	block := s.BlockSize
	if block <= 0 || block > t.Len() {
		block = t.Len()
	}
	for start := 0; start < t.Len(); start += block {
		end := min(start+block, t.Len())
		absMax := maxAbs(t.Data[start:end])
		if absMax == 0 {
			continue
		}
		for i := start; i < end; i++ {
			out.Data[i] = codes[nearestCodeIdx(t.Data[i]/absMax, codes)] * absMax
		}
	}
	return out
}

// maxAbs is the largest |v| in xs (NaNs ignored), or 0.
func maxAbs(xs []float32) float32 {
	var m float32
	for _, v := range xs {
		if v < 0 {
			v = -v
		}
		if v > m {
			m = v
		}
	}
	return m
}

// nearestCodeIdx binary-searches the sorted codebook for the index of the
// closest entry (ties toward the lower code).
func nearestCodeIdx(v float32, codes []float32) int {
	i := sort.Search(len(codes), func(i int) bool { return codes[i] >= v })
	if i == 0 {
		return 0
	}
	if i == len(codes) {
		return len(codes) - 1
	}
	if v-codes[i-1] <= codes[i]-v {
		return i - 1
	}
	return i
}

// PackNF quantizes t (rank-2) with the NF codebook scheme and packs the
// code indices into a bit stream, one absmax scale per block of flat
// row-major elements, exactly as FakeQuant scans them: Unpack equals
// FakeQuant's output (an all-zero block decodes to +0).
func PackNF(t *tensor.Tensor, s NFScheme) *Packed {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	rows, cols := t.Rows(), t.Cols()
	n := rows * cols
	block := s.BlockSize
	if block <= 0 || block > n {
		block = n
	}
	codes := s.Codebook()
	zeroIdx := len(codes) / 2 // the codebook's exact-zero entry
	p := &Packed{
		Bits: s.Bits, Rows: rows, Cols: cols, BlockSize: block,
		Codes:  make([]byte, codeBytes(rows, cols, s.Bits)),
		Scale:  make([]float32, (n+block-1)/block),
		levels: codes,
	}
	for start := 0; start < n; start += block {
		end := min(start+block, n)
		absMax := maxAbs(t.Data[start:end])
		p.Scale[start/block] = absMax
		for i := start; i < end; i++ {
			ci := zeroIdx
			if absMax != 0 {
				ci = nearestCodeIdx(t.Data[i]/absMax, codes)
			}
			writeBits(p.Codes, i*s.Bits, s.Bits, byte(ci))
		}
	}
	return p
}
