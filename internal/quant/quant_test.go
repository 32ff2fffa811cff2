package quant

import (
	"math"
	"testing"
	"testing/quick"

	"edgellm/internal/tensor"
)

func TestSchemeValidate(t *testing.T) {
	good := []Scheme{
		{Bits: 2, Symmetric: true, PerChannel: true},
		{Bits: 8, Symmetric: true, PerChannel: true},
		{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 16},
	}
	for _, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("%v should be valid: %v", s, err)
		}
	}
	bad := []Scheme{
		{Bits: 1, Symmetric: true, PerChannel: true},
		{Bits: 9, Symmetric: true, PerChannel: true},
		{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: -1},
		{Bits: 4, GroupSize: 8}, // group without per-channel
		{Bits: 4},               // asymmetric per-tensor
		{Bits: 4, Symmetric: true},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("%+v should be invalid", s)
		}
	}
}

// TestFakeQuantNeedsRankTwo: per-channel scales need a (rows, cols)
// weight; any other rank panics rather than quantizing per tensor.
func TestFakeQuantNeedsRankTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fake-quant of a rank-1 tensor must panic")
		}
	}()
	Scheme{Bits: 4, Symmetric: true, PerChannel: true}.FakeQuantInPlace(tensor.New(8))
}

func TestSchemeString(t *testing.T) {
	s := Scheme{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 32}
	if s.String() != "int4-sym-pc-g32" {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestFakeQuantIdempotent(t *testing.T) {
	g := tensor.NewRNG(1)
	w := g.Normal(0, 1, 16, 8)
	for _, s := range []Scheme{
		{Bits: 4, Symmetric: true, PerChannel: true},
		{Bits: 8, Symmetric: true, PerChannel: true, GroupSize: 3},
		{Bits: 3, Symmetric: true, PerChannel: true},
		{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 4},
	} {
		once := fakeQuant(s, w)
		twice := fakeQuant(s, once)
		if !tensor.AllClose(once, twice, 1e-6, 1e-6) {
			t.Fatalf("%v: fake-quant must be idempotent", s)
		}
	}
}

// TestFakeQuantInPlaceMatchesFakeQuant: quantizing a tensor over itself
// gives the bits of quantizing it into a separate tensor, at every width and granularity, on values with
// ±0, NaN and ±Inf, an all-zero group, a constant group and a partial
// group at the bottom of each column.
func TestFakeQuantInPlaceMatchesFakeQuant(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), float32(math.NaN()),
		float32(math.Inf(1)), float32(math.Inf(-1))}
	g := tensor.NewRNG(7)
	w := g.Normal(0, 1, 22, 7)
	for i := 0; i < len(w.Data); i += 5 {
		w.Data[i] = specials[g.Intn(len(specials))]
	}
	for r := 0; r < 16; r++ {
		w.Data[r*7+1] = 0    // column 1, rows 0..15: an all-zero group
		w.Data[r*7+2] = 0.25 // column 2, rows 0..15: a constant group
	}
	wide := tensor.FromSlice(append([]float32(nil), w.Data...), 7, 22)
	for bits := 2; bits <= 8; bits++ {
		for _, s := range []Scheme{
			{Bits: bits, Symmetric: true, PerChannel: true},
			{Bits: bits, Symmetric: true, PerChannel: true, GroupSize: 16},
			{Bits: bits, Symmetric: true, PerChannel: true, GroupSize: 4},
		} {
			for _, in := range []*tensor.Tensor{w, wide} {
				want := tensor.New(in.Shape...)
				s.fakeQuantInto(want, in, useAVX2)
				got := in.Clone()
				s.FakeQuantInPlace(got)
				for i := range want.Data {
					if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
						t.Fatalf("%v shape %v: element %d (%v) in place %v, out of place %v",
							s, in.Shape, i, in.Data[i], got.Data[i], want.Data[i])
					}
				}
			}
		}
	}
}

func TestFakeQuantPreservesZeros(t *testing.T) {
	// Symmetric quantization maps 0 → 0 exactly — required so pruning
	// masks survive subsequent quantization (the LUC unified-compression
	// invariant).
	g := tensor.NewRNG(2)
	w := g.Normal(0, 1, 12, 12)
	for i := 0; i < len(w.Data); i += 3 {
		w.Data[i] = 0
	}
	for _, s := range []Scheme{
		{Bits: 2, Symmetric: true, PerChannel: true},
		{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 5},
		{Bits: 8, Symmetric: true, PerChannel: true, GroupSize: 4},
	} {
		q := fakeQuant(s, w)
		for i := 0; i < len(w.Data); i += 3 {
			if q.Data[i] != 0 {
				t.Fatalf("%v: zero became %v", s, q.Data[i])
			}
		}
	}
}

func TestFakeQuantBoundedError(t *testing.T) {
	// Every dequantized value must lie within half its channel's
	// quantization step of the input.
	g := tensor.NewRNG(3)
	w := g.Uniform(-2, 2, 20, 10)
	s := Scheme{Bits: 8, Symmetric: true, PerChannel: true}
	q := fakeQuant(s, w)
	qmax := 127.0
	for c := 0; c < w.Cols(); c++ {
		var absMax float64
		for r := 0; r < w.Rows(); r++ {
			absMax = math.Max(absMax, math.Abs(float64(w.At(r, c))))
		}
		step := absMax / qmax
		for r := 0; r < w.Rows(); r++ {
			if math.Abs(float64(q.At(r, c)-w.At(r, c))) > step/2+1e-6 {
				t.Fatalf("error exceeds half step at (%d,%d): %v vs %v", r, c, q.At(r, c), w.At(r, c))
			}
		}
	}
}

func TestMoreBitsLessError(t *testing.T) {
	g := tensor.NewRNG(4)
	w := g.Normal(0, 1, 64, 64)
	prev := math.Inf(1)
	for _, bits := range []int{2, 3, 4, 6, 8} {
		e := tensor.MSE(fakeQuant(Scheme{Bits: bits, Symmetric: true, PerChannel: true}, w), w)
		if e >= prev {
			t.Fatalf("error must fall with bits: int%d %.6g ≥ %.6g", bits, e, prev)
		}
		prev = e
	}
}

func TestGroupedBeatsPerChannelOnOutliers(t *testing.T) {
	// Inject one huge outlier per channel: grouping isolates it.
	g := tensor.NewRNG(6)
	w := g.Normal(0, 0.1, 64, 4)
	for c := 0; c < 4; c++ {
		w.Set(0, c, 50)
	}
	pc := tensor.MSE(fakeQuant(Scheme{Bits: 4, Symmetric: true, PerChannel: true}, w), w)
	gr := tensor.MSE(fakeQuant(Scheme{Bits: 4, Symmetric: true, PerChannel: true, GroupSize: 8}, w), w)
	if gr >= pc {
		t.Fatalf("grouped (%.4g) must beat per-channel (%.4g) with outliers", gr, pc)
	}
}

func TestConstantTensorQuantizesExactly(t *testing.T) {
	// A constant channel sits on its own grid's top level.
	s := Scheme{Bits: 2, Symmetric: true, PerChannel: true}
	w := tensor.Full(3.7, 5, 5)
	if q := fakeQuant(s, w); !tensor.AllClose(q, w, 1e-6, 1e-6) {
		t.Fatal("constant tensor must quantize exactly")
	}
	z := tensor.New(4, 4)
	qz := fakeQuant(s, z)
	if !tensor.AllClose(qz, z, 0, 0) {
		t.Fatal("all-zero tensor must stay zero")
	}
}

func TestPackUnpackMatchesFakeQuant(t *testing.T) {
	g := tensor.NewRNG(8)
	w := g.Normal(0, 1, 13, 7) // deliberately non-multiple-of-8 size
	for _, bits := range []int{2, 3, 4, 8} {
		p := Pack(w, bits)
		got := p.Unpack()
		// Pack uses symmetric per-channel quantization; compare to the
		// matching fake-quant (both use round-half-away and clamp).
		want := fakeQuant(Scheme{Bits: bits, Symmetric: true, PerChannel: true}, w)
		if !tensor.AllClose(got, want, 1e-5, 1e-5) {
			t.Fatalf("int%d pack/unpack disagrees with fake-quant", bits)
		}
	}
}

func TestPackedStorageMatchesAccounting(t *testing.T) {
	g := tensor.NewRNG(9)
	w := g.Normal(0, 1, 64, 32)
	p := Pack(w, 4)
	wantCodes := int64(64 * 32 * 4 / 8)
	if got := p.StorageBytes(); got != wantCodes+32*4 {
		t.Fatalf("packed storage %d bytes, want %d", got, wantCodes+32*4)
	}
}

func TestPropQuantErrorNonNegativeAndBounded(t *testing.T) {
	f := func(seed int64, bits8 uint8) bool {
		bits := int(bits8%7) + 2
		g := tensor.NewRNG(seed)
		w := g.Normal(0, 1, 8, 8)
		s := Scheme{Bits: bits, Symmetric: true, PerChannel: true}
		e := tensor.MSE(fakeQuant(s, w), w)
		// error is non-negative and below the tensor's mean square (weak
		// but universal bound for ≥2-bit quantization of a full-range
		// signal)
		var ms float64
		for _, v := range w.Data {
			ms += float64(v) * float64(v)
		}
		ms /= float64(w.Len())
		return e >= 0 && e < ms
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPackRoundtripWithinStep(t *testing.T) {
	f := func(seed int64, bits8 uint8) bool {
		bits := int(bits8%7) + 2
		g := tensor.NewRNG(seed)
		w := g.Normal(0, 1, 9, 5)
		back := Pack(w, bits).Unpack()
		qmax := float64(int(1)<<(bits-1)) - 1
		for c := 0; c < 5; c++ {
			var absMax float64
			for r := 0; r < 9; r++ {
				if a := math.Abs(float64(w.At(r, c))); a > absMax {
					absMax = a
				}
			}
			step := absMax / qmax
			for r := 0; r < 9; r++ {
				if math.Abs(float64(back.At(r, c)-w.At(r, c))) > step/2+1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// fakeQuant is FakeQuantInPlace on a clone of w.
func fakeQuant(s Scheme, w *tensor.Tensor) *tensor.Tensor {
	out := w.Clone()
	s.FakeQuantInPlace(out)
	return out
}
