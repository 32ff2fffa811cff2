package nn

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edgellm/internal/tensor"
)

func TestSampleConfigValidate(t *testing.T) {
	good := SampleConfig{Temperature: 0.8, TopK: 5, MaxTokens: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []SampleConfig{
		{Temperature: -1, MaxTokens: 1},
		{Temperature: math.NaN(), MaxTokens: 1},
		{TopK: -1, MaxTokens: 1},
		{MaxTokens: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Fatalf("%+v should be invalid", bad)
		}
	}
}

// genDecoder is a decoder over a seeded model with room for the generations
// below (tinyModel's MaxSeq is 8, and a KV cache does not slide).
func genDecoder(t *testing.T, seed int64) *Decoder {
	cfg := tinyConfig()
	cfg.MaxSeq = 24
	d := NewDecoder(NewModel(cfg, tensor.NewRNG(seed)))
	t.Cleanup(d.Close)
	return d
}

func TestGenerateLengthAndRange(t *testing.T) {
	d := genDecoder(t, 50)
	out, err := d.Generate([]int{1, 2, 3}, SampleConfig{Temperature: 1, MaxTokens: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 13 {
		t.Fatalf("generated %d tokens, want 13", len(out))
	}
	for i, tok := range out {
		if tok < 0 || tok >= d.Config().Vocab {
			t.Fatalf("token %d at %d out of range", tok, i)
		}
	}
	// The prompt must be preserved as a prefix.
	for i, want := range []int{1, 2, 3} {
		if out[i] != want {
			t.Fatal("prompt not preserved")
		}
	}
}

func TestGenerateGreedyDeterministic(t *testing.T) {
	d := genDecoder(t, 51)
	cfg := SampleConfig{Temperature: 0, MaxTokens: 8, Seed: 1}
	a, _ := d.Generate([]int{5}, cfg)
	cfg.Seed = 999 // greedy must ignore the seed
	b, _ := d.Generate([]int{5}, cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("greedy decoding must be deterministic")
		}
	}
}

func TestGenerateSampledSeedsDiffer(t *testing.T) {
	d := genDecoder(t, 52)
	a, _ := d.Generate([]int{5}, SampleConfig{Temperature: 1.5, MaxTokens: 12, Seed: 1})
	b, _ := d.Generate([]int{5}, SampleConfig{Temperature: 1.5, MaxTokens: 12, Seed: 2})
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should (overwhelmingly) give different samples")
	}
	c, _ := d.Generate([]int{5}, SampleConfig{Temperature: 1.5, MaxTokens: 12, Seed: 1})
	for i := range a {
		if a[i] != c[i] {
			t.Fatal("same seed must reproduce the sample")
		}
	}
}

func TestGenerateTopKRestricts(t *testing.T) {
	// With TopK=1, sampling degenerates to greedy regardless of temperature.
	d := genDecoder(t, 53)
	greedy, _ := d.Generate([]int{7}, SampleConfig{Temperature: 0, MaxTokens: 6, Seed: 1})
	topk1, _ := d.Generate([]int{7}, SampleConfig{Temperature: 2, TopK: 1, MaxTokens: 6, Seed: 42})
	for i := range greedy {
		if greedy[i] != topk1[i] {
			t.Fatal("top-1 sampling must equal greedy")
		}
	}
}

func TestGenerateEmptyPromptErrors(t *testing.T) {
	d := genDecoder(t, 55)
	if _, err := d.Generate(nil, SampleConfig{Temperature: 0, MaxTokens: 1}); err == nil {
		t.Fatal("empty prompt must error")
	}
}

// TestGenerateHugeMaxTokensRejectedUpFront: a MaxTokens so large that
// prompt + MaxTokens wraps around int is the same up-front MaxSeq error as
// any other overlong request, before the decoder takes a step.
func TestGenerateHugeMaxTokensRejectedUpFront(t *testing.T) {
	d := genDecoder(t, 56)
	if _, err := d.Generate([]int{1, 2}, SampleConfig{MaxTokens: 4}); err != nil {
		t.Fatal(err)
	}
	pos := d.arena.Len(0)
	_, err := d.Generate([]int{1, 2, 3}, SampleConfig{MaxTokens: math.MaxInt})
	if err == nil || errors.Is(err, ErrBadBatch) || !strings.Contains(err.Error(), "exceeds MaxSeq") {
		t.Fatalf("MaxTokens = MaxInt: err = %v, want the up-front MaxSeq error", err)
	}
	if d.arena.Len(0) != pos {
		t.Fatalf("rejected request stepped the decoder: position %d → %d", pos, d.arena.Len(0))
	}
}

// TestSampleLogitsTemperatureZeroIsArgmax: temperature 0 picks the first
// largest logit and never draws from the RNG, whatever TopK says.
func TestSampleLogitsTemperatureZeroIsArgmax(t *testing.T) {
	logits := []float32{-1, 3, 0.5, 3, -7}
	g, untouched := tensor.NewRNG(9), tensor.NewRNG(9)
	for _, topK := range []int{0, 1, 3} {
		if got := SampleLogits(logits, SampleConfig{Temperature: 0, TopK: topK}, g); got != 1 {
			t.Fatalf("TopK %d: temperature 0 chose %d, want the first argmax 1", topK, got)
		}
	}
	if g.Float64() != untouched.Float64() {
		t.Fatal("greedy sampling consumed randomness")
	}
}

// sampleSpecials are the logits byte values ≥ 200 stand for in a fuzzed row:
// NaN, both infinities and both extremes, values that overflow to +Inf at
// temperature 1e-300 and ones that underflow to 0 at 1e300, both zeros.
var sampleSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, -math.MaxFloat32, 1e9, 2e9, -1e9,
	math.Float32frombits(1), math.Float32frombits(2), -math.Float32frombits(1),
	float32(math.Copysign(0, -1)), 0, 1e-30, 2e-30,
}

// sampleRow builds a row of max(len(row), n) logits: byte b of row is
// (b-100)/4 below 200 — a coarse grid, so ties are common — and a special
// value above; the rest are standard normals from seed.
func sampleRow(row []byte, n int, seed int64) []float32 {
	logits := tensor.NewRNG(seed).Normal(0, 1, max(len(row), n, 1)).Data
	for i, b := range row {
		if b < 200 {
			logits[i] = float32(int(b)-100) / 4
		} else {
			logits[i] = sampleSpecials[int(b-200)%len(sampleSpecials)]
		}
	}
	return logits
}

// sameAsRef requires sampleToken to draw sampleTokenRef's token and leave
// the RNG at the same position: both RNGs' next draws must agree.
func sameAsRef(t *testing.T, logits []float32, cfg SampleConfig) {
	t.Helper()
	g, gRef := tensor.NewRNG(cfg.Seed), tensor.NewRNG(cfg.Seed)
	got, want := sampleToken(logits, cfg, g), sampleTokenRef(logits, cfg, gRef)
	next, nextRef := g.Float64(), gRef.Float64()
	if got != want || next != nextRef {
		t.Fatalf("V=%d TopK=%d T=%v: token %d, next draw %v; the reference draws %d, then %v",
			len(logits), cfg.TopK, cfg.Temperature, got, next, want, nextRef)
	}
}

// TestSampleTokenMatchesRef runs the one-pass sampler against the selection
// sort on rows of random normals, of coarse grids full of ties and of grids
// sprinkled with special values, at every K from the edges and extreme
// temperatures, where distinct logits scale to one value.
func TestSampleTokenMatchesRef(t *testing.T) {
	g := tensor.NewRNG(91)
	temps := []float64{0.8, 1, 0.05, 3, 1e-300, 1e300, -1, math.Inf(1), math.NaN()}
	for c := 0; c < 4000; c++ {
		V := []int{1, 2, 3, 5, 41, 64, 65, 66, 300, 2048}[g.Intn(10)]
		var row []byte
		switch c % 4 {
		case 1: // a coarse grid: ties everywhere
			row = make([]byte, V)
			for i := range row {
				row[i] = byte(80 + g.Intn(40))
			}
		case 2: // the grid with a few specials
			row = make([]byte, V)
			for i := range row {
				row[i] = byte(g.Intn(200))
				if g.Intn(50) == 0 {
					row[i] = byte(200 + g.Intn(56))
				}
			}
		}
		K := []int{0, 1, 2, 40, 64, 65, V - 1, V, V + 1, g.Intn(V + 2)}[g.Intn(10)]
		cfg := SampleConfig{Temperature: temps[g.Intn(len(temps))], TopK: K, Seed: int64(c)}
		sameAsRef(t, sampleRow(row, V, int64(c)), cfg)
	}
}

// FuzzSampleLogits lets the engine pick the row, K, the temperature and the
// RNG seed; sampleToken must agree with sampleTokenRef on the token and on
// the RNG state it leaves.
func FuzzSampleLogits(f *testing.F) {
	grid := func(vals ...float32) []byte {
		b := make([]byte, len(vals))
		for i, v := range vals {
			b[i] = byte(v*4 + 100)
		}
		return b
	}
	f.Add(grid(5, 4, 3, 3, 1), uint16(0), uint16(3), 0.8, int64(1))           // tie at the K-th value
	f.Add(grid(1, 1, 3), uint16(0), uint16(3), 1.0, int64(2))                 // K = V: index order
	f.Add(grid(1, 1, 3), uint16(0), uint16(2), 1.0, int64(3))                 // tie the swaps reorder
	f.Add(grid(1, 1, 3, 0), uint16(0), uint16(3), 1.0, int64(4))              // ... inside the top K
	f.Add([]byte{100, 200, 110}, uint16(0), uint16(1), 0.8, int64(5))         // NaN outside the top K
	f.Add([]byte{200, 100, 110}, uint16(0), uint16(2), 0.8, int64(6))         // NaN first
	f.Add([]byte{201, 100, 202, 110}, uint16(0), uint16(2), 0.8, int64(7))    // +Inf wins, -Inf
	f.Add([]byte{201, 201, 100}, uint16(0), uint16(1), 0.8, int64(8))         // two +Inf
	f.Add([]byte{205, 206, 110, 203}, uint16(0), uint16(2), 1e-300, int64(9)) // both overflow to +Inf
	f.Add([]byte{208, 209, 100, 101}, uint16(0), uint16(2), 1e300, int64(10)) // denormals scale to 0
	for i, k := range []uint16{0, 1, 64, 65, 2047, 2048, 2049} {
		f.Add([]byte(nil), uint16(2048), k, 0.8, int64(20+i))
	}
	f.Fuzz(func(t *testing.T, row []byte, n, k uint16, temp float64, seed int64) {
		logits := sampleRow(row, int(n)%4097, seed)
		sameAsRef(t, logits, SampleConfig{Temperature: temp, TopK: int(k) % (len(logits) + 2), Seed: seed})
	})
}

// TestSampleLogitsAllocs pins the sampler's zero allocations on the served
// configuration (temperature 0.8, top-k 40) and on the whole row (top-k 0).
func TestSampleLogitsAllocs(t *testing.T) {
	logits := tensor.NewRNG(92).Normal(0, 1, 2048).Data
	g := tensor.NewRNG(93)
	for _, k := range []int{40, 0} {
		cfg := SampleConfig{Temperature: 0.8, TopK: k}
		if a := testing.AllocsPerRun(20, func() { SampleLogits(logits, cfg, g) }); a != 0 {
			t.Fatalf("top-k %d: SampleLogits allocates %.1f per token, want 0", k, a)
		}
	}
}

// BenchmarkSampleLogits times one draw from a 2048-logit row at the served
// configuration, through the sampler and through its reference.
func BenchmarkSampleLogits(b *testing.B) {
	logits := tensor.NewRNG(94).Normal(0, 1, 2048).Data
	for _, bc := range []struct {
		name string
		k    int
		fn   func([]float32, SampleConfig, *tensor.RNG) int
	}{{"top40", 40, sampleToken}, {"top0", 0, sampleToken}, {"ref-top40", 40, sampleTokenRef}} {
		b.Run(bc.name, func(b *testing.B) {
			cfg, g := SampleConfig{Temperature: 0.8, TopK: bc.k}, tensor.NewRNG(95)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn(logits, cfg, g)
			}
		})
	}
}

func TestSampleTokenDistribution(t *testing.T) {
	// A strongly peaked logit row must dominate the samples.
	logits := []float32{0, 0, 10, 0}
	g := tensor.NewRNG(1)
	hits := 0
	for i := 0; i < 200; i++ {
		if sampleToken(logits, SampleConfig{Temperature: 1}, g) == 2 {
			hits++
		}
	}
	if hits < 190 {
		t.Fatalf("peaked distribution sampled only %d/200 times", hits)
	}
}
