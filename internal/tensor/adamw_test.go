package tensor

import (
	"fmt"
	"math"
	"testing"
)

// adamWSpecials are the values an AdamW lane can meet that ordinary training
// rarely produces: both zeros, denormals, values whose square overflows
// float32, the largest float32, both infinities and NaN.
var adamWSpecials = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(0x007fffff),
	3e19, -1e30, math.MaxFloat32,
	float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()),
}

// adamWConsts is step's constants at β1 0.9, β2 0.999, ε 1e-8, the
// defaults train.NewAdamW sets.
func adamWConsts(step int, lr, weightDecay float32) AdamWStep {
	return NewAdamWStep(step, 0.9, 0.999, 1e-8, lr, weightDecay)
}

// adamWCase runs one AdamW call through the dispatcher (the assembly, where
// this process has it) and through adamWGo over copies of the same state and
// compares w, m and v. The slices start off elements into their backing
// arrays so the assembly meets unaligned bases; special, when non-zero,
// sprinkles adamWSpecials over the gradient and the state.
func adamWCase(t *testing.T, seed int64, n, step, off int, special uint8, c AdamWStep) {
	t.Helper()
	g := NewRNG(seed)
	fill := func(scale float64, abs bool) []float32 {
		s := g.Normal(0, scale, 1, off+n).Data[off:]
		for i := range s {
			if abs && s[i] < 0 {
				s[i] = -s[i]
			}
		}
		return s
	}
	w, grad, m, v := fill(1, false), fill(0.1, false), fill(0.01, false), fill(1e-4, true)
	for i := 0; i < n; i += 4 {
		grad[i] = 0 // a frozen or dead unit
	}
	if special != 0 {
		stride := 1 + int(special)%5
		for i, s := range [][]float32{w, grad, m, v} {
			for j := (int(special) + i) % 3; j < n; j += stride + i {
				s[j] = adamWSpecials[(j+i+int(special))%len(adamWSpecials)]
			}
		}
	}
	wGo, mGo, vGo := append([]float32(nil), w...), append([]float32(nil), m...), append([]float32(nil), v...)
	AdamW(w, grad, m, v, c)
	adamWGo(wGo, grad, mGo, vGo, c)
	name := fmt.Sprintf("AdamW n=%d step=%d off=%d special=%d decay=%v", n, step, off, special, c.decay)
	sameFloats(t, name+" m", m, mGo)
	sameFloats(t, name+" v", v, vGo)
	sameFloats(t, name+" w", w, wGo)
}

// TestAdamWMatchesGo pins the assembly against its Go twin on lengths below,
// at and around multiples of 8, at the first step and at step 10⁴ (bias
// corrections near 0 and at 1), with and without weight decay and special
// values. On a machine without the assembly it compares the twin with itself.
func TestAdamWMatchesGo(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 16, 61, 64, 203} {
		for _, step := range []int{1, 2, 10000} {
			for _, wd := range []float32{0, 0.01} {
				c := adamWConsts(step, 0.01, wd)
				for off := 0; off < 2; off++ {
					adamWCase(t, int64(n*10+step), n, step, off, 0, c)
					adamWCase(t, int64(n*10+step), n, step, off, uint8(n+step+off), c)
				}
			}
		}
	}
}

// FuzzAdamW lets the engine pick the length, the step, the learning rate,
// the weight decay, the base alignment and where the special values fall.
func FuzzAdamW(f *testing.F) {
	f.Add(int64(1), uint8(63), uint16(1), uint8(0), uint8(0), false)     // 64 lanes, step 1
	f.Add(int64(2), uint8(108), uint16(10000), uint8(3), uint8(9), true) // 104 + 5, step 10⁴, specials
	f.Add(int64(3), uint8(4), uint16(7), uint8(1), uint8(5), false)      // 5 lanes: all tail
	f.Add(int64(4), uint8(200), uint16(350), uint8(7), uint8(77), true)  // bias correction 1 near 1
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8, stepRaw uint16, off, special uint8, decay bool) {
		step := 1 + int(stepRaw)
		lr := float32(math.Ldexp(1, -int(seed&15)))
		var wd float32
		if decay {
			wd = 0.05
		}
		adamWCase(t, seed, 1+int(nRaw), step, int(off)%8, special, adamWConsts(step, lr, wd))
	})
}
