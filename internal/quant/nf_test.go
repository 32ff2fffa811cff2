package quant

import (
	"math"
	"testing"
	"testing/quick"

	"edgellm/internal/tensor"
)

func TestNFCodebookProperties(t *testing.T) {
	for _, bits := range []int{2, 3, 4, 8} {
		s := NFScheme{Bits: bits}
		codes := s.Codebook()
		if len(codes) != (1<<bits)-1 {
			t.Fatalf("nf%d codebook has %d entries, want %d", bits, len(codes), (1<<bits)-1)
		}
		hasZero := false
		for i, c := range codes {
			if c == 0 {
				hasZero = true
			}
			if c < -1-1e-6 || c > 1+1e-6 {
				t.Fatalf("nf%d code %v outside [-1,1]", bits, c)
			}
			if i > 0 && codes[i] <= codes[i-1] {
				t.Fatalf("nf%d codebook not strictly increasing", bits)
			}
			if codes[i] != -codes[len(codes)-1-i] {
				t.Fatalf("nf%d codebook not symmetric", bits)
			}
		}
		if !hasZero {
			t.Fatalf("nf%d codebook lacks an exact zero", bits)
		}
		if codes[0] != -1 || codes[len(codes)-1] != 1 {
			t.Fatalf("nf%d codebook must reach ±1 after normalisation", bits)
		}
	}
}

func TestNFCodebookDenserNearZero(t *testing.T) {
	// The defining property: spacing near zero must be finer than at the
	// tails (that is what wins on Gaussian weights).
	codes := NFScheme{Bits: 4}.Codebook()
	mid := len(codes) / 2
	centerGap := float64(codes[mid] - codes[mid-1])
	tailGap := float64(codes[len(codes)-1] - codes[len(codes)-2])
	if centerGap >= tailGap {
		t.Fatalf("center gap %v not finer than tail gap %v", centerGap, tailGap)
	}
}

func TestNFValidate(t *testing.T) {
	if err := (NFScheme{Bits: 4, BlockSize: 64}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []NFScheme{{Bits: 1}, {Bits: 9}, {Bits: 4, BlockSize: -1}} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should be invalid", bad)
		}
	}
	if (NFScheme{Bits: 4, BlockSize: 64}).String() != "nf4-b64" {
		t.Fatal("String format wrong")
	}
}

func TestNFIdempotentAndZeroPreserving(t *testing.T) {
	g := tensor.NewRNG(1)
	w := g.Normal(0, 1, 16, 16)
	for i := 0; i < len(w.Data); i += 4 {
		w.Data[i] = 0
	}
	s := NFScheme{Bits: 4, BlockSize: 32}
	once := s.FakeQuant(w)
	twice := s.FakeQuant(once)
	if !tensor.AllClose(once, twice, 1e-6, 1e-6) {
		t.Fatal("NF fake-quant must be idempotent")
	}
	for i := 0; i < len(w.Data); i += 4 {
		if once.Data[i] != 0 {
			t.Fatal("NF must preserve exact zeros")
		}
	}
}

func TestNFBeatsUniformOnGaussianWeights(t *testing.T) {
	// The headline NF property at 4 bits and below.
	g := tensor.NewRNG(2)
	w := g.Normal(0, 1, 128, 128)
	for _, bits := range []int{3, 4} {
		nf := tensor.MSE(NFScheme{Bits: bits}.FakeQuant(w), w)
		uni := tensor.MSE(Scheme{Bits: bits, Symmetric: true}.FakeQuant(w), w)
		if nf >= uni {
			t.Fatalf("nf%d error %.6g not better than uniform %.6g on Gaussian weights", bits, nf, uni)
		}
	}
}

func TestNFUniformWinsOnUniformData(t *testing.T) {
	// Sanity inverse: on uniformly distributed data the uniform grid is
	// the better match.
	g := tensor.NewRNG(3)
	w := g.Uniform(-1, 1, 128, 128)
	nf := tensor.MSE(NFScheme{Bits: 4}.FakeQuant(w), w)
	uni := tensor.MSE(Scheme{Bits: 4, Symmetric: true}.FakeQuant(w), w)
	if uni >= nf {
		t.Fatalf("uniform grid (%.6g) should beat NF (%.6g) on uniform data", uni, nf)
	}
}

func TestNFBlockingHandlesOutliers(t *testing.T) {
	g := tensor.NewRNG(4)
	w := g.Normal(0, 0.1, 64, 8)
	w.Data[0] = 100 // one outlier poisons a global scale
	global := tensor.MSE(NFScheme{Bits: 4}.FakeQuant(w), w)
	blocked := tensor.MSE(NFScheme{Bits: 4, BlockSize: 64}.FakeQuant(w), w)
	if blocked >= global {
		t.Fatalf("blocked NF (%.6g) must beat global NF (%.6g) with outliers", blocked, global)
	}
}

func TestPropNFErrorBounded(t *testing.T) {
	f := func(seed int64, bits8 uint8) bool {
		bits := int(bits8%7) + 2
		g := tensor.NewRNG(seed)
		w := g.Normal(0, 1, 12, 12)
		s := NFScheme{Bits: bits}
		q := s.FakeQuant(w)
		// every output must be a codebook value times the tensor absmax
		absMax := w.AbsMax()
		codes := s.Codebook()
		for _, v := range q.Data {
			ok := false
			for _, c := range codes {
				if math.Abs(float64(v-c*absMax)) < 1e-5*float64(absMax)+1e-12 {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
