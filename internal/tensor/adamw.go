package tensor

import (
	"fmt"
	"math"
)

// AdamWStep holds one optimizer step's constants in the precision the
// update uses each at. Build it with NewAdamWStep.
type AdamWStep struct {
	decay                float32 // 1 − lr·weightDecay; 1 without weight decay
	beta1, oneMinusBeta1 float32
	beta2, oneMinusBeta2 float32
	lr                   float32
	bc1, bc2             float64 // bias corrections 1 − βᵗ
	eps                  float64
}

// NewAdamWStep derives step t's (t ≥ 1) constants from the optimizer's
// hyper-parameters: 1−β and the decay factor rounded once in float32, the
// bias corrections 1−βᵗ by float64 math.Pow, ε widened exactly.
func NewAdamWStep(t int, beta1, beta2, eps, lr, weightDecay float32) AdamWStep {
	c := AdamWStep{
		decay: 1,
		beta1: beta1, oneMinusBeta1: 1 - beta1,
		beta2: beta2, oneMinusBeta2: 1 - beta2,
		lr:  lr,
		bc1: 1 - math.Pow(float64(beta1), float64(t)),
		bc2: 1 - math.Pow(float64(beta2), float64(t)),
		eps: float64(eps),
	}
	if weightDecay != 0 {
		c.decay = 1 - lr*weightDecay
	}
	return c
}

// AdamW applies one decoupled-weight-decay Adam update to the parameter w in
// place, with gradient g and moment buffers m and v (all one length), each
// element on its own:
//
//	w ← w·(1 − lr·weightDecay)               float32, skipped without decay
//	m ← β1·m + (1−β1)·g                      float32
//	v ← β2·v + ((1−β2)·g)·g                  float32
//	u ← (m/(1−β1ᵗ)) / (√(v/(1−β2ᵗ)) + ε)     float64, then rounded to float32
//	w ← w − lr·u                             float32
//
// Every step is one correctly rounded basic operation (no fused
// multiply-add, no exp), so a vector unit computing the same operations in
// the same order produces the same bits. adamWGo is that definition and the
// only path on every GOARCH but amd64; on amd64 with AVX2, whole groups of 8
// elements go to adamWAVX2 (DESIGN.md §6) and only what len(w)%8 leaves over
// to adamWGo.
func AdamW(w, g, m, v []float32, c AdamWStep) {
	n := len(w)
	if len(g) != n || len(m) != n || len(v) != n {
		panic(fmt.Sprintf("tensor: AdamW lengths w %d g %d m %d v %d", n, len(g), len(m), len(v)))
	}
	n8 := 0
	if useAVX2 {
		if n8 = n &^ 7; n8 > 0 {
			adamWAVX2(&w[0], &g[0], &m[0], &v[0], n8, c)
		}
	}
	if n8 < n {
		adamWGo(w[n8:], g[n8:], m[n8:], v[n8:], c)
	}
}

// adamWGo is AdamW's reference. The float32 conversions around each product
// are the Go spec's way to forbid fusing it into the add that follows, so the
// twin rounds as the assembly does whatever the compiler targets.
func adamWGo(w, g, m, v []float32, c AdamWStep) {
	for i := range w {
		wi := float32(w[i] * c.decay)
		gi := g[i]
		mi := float32(c.beta1*m[i]) + float32(c.oneMinusBeta1*gi)
		vi := float32(c.beta2*v[i]) + float32(float32(c.oneMinusBeta2*gi)*gi)
		m[i], v[i] = mi, vi
		u := float32(float64(mi) / c.bc1 / (math.Sqrt(float64(vi)/c.bc2) + c.eps))
		w[i] = wi - float32(c.lr*u)
	}
}
