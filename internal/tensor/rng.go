package tensor

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the initialisation distributions used by the
// model code. All randomness in the repository flows through explicitly
// seeded RNGs so every experiment is reproducible.
type RNG struct {
	r *rand.Rand
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// Float64 returns a uniform sample in [0,1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform sample in [0,n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Perm returns a random permutation of [0,n).
func (g *RNG) Perm(n int) []int { return g.r.Perm(n) }

// NormFloat64 returns a standard normal sample.
func (g *RNG) NormFloat64() float64 { return g.r.NormFloat64() }

// Normal returns a tensor with elements drawn from N(mean, std²).
func (g *RNG) Normal(mean, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(mean + std*g.r.NormFloat64())
	}
	return t
}

// Uniform returns a tensor with elements drawn uniformly from [lo, hi).
func (g *RNG) Uniform(lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(lo + (hi-lo)*g.r.Float64())
	}
	return t
}

// Xavier returns a tensor initialised with Glorot-uniform scaling for a
// weight of shape (fanIn, fanOut).
func (g *RNG) Xavier(fanIn, fanOut int) *Tensor {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return g.Uniform(-limit, limit, fanIn, fanOut)
}
