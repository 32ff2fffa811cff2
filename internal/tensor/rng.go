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
	// src is non-nil only for savable RNGs (NewSavableRNG), whose entire
	// generator state is one uint64 that State exposes.
	src *splitmix64
}

// NewRNG returns a deterministic RNG seeded with seed.
func NewRNG(seed int64) *RNG { return &RNG{r: rand.New(rand.NewSource(seed))} }

// splitmix64 is SplitMix64 (Steele, Lea & Flood) exposed as a
// rand.Source64. Unlike math/rand's default source its complete state is a
// single uint64, so two savable RNGs can be compared by one word: tests use
// it to check that two code paths consumed exactly the same draws.
type splitmix64 struct{ state uint64 }

func (s *splitmix64) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitmix64) Int63() int64 { return int64(s.Uint64() >> 1) }

func (s *splitmix64) Seed(seed int64) { s.state = uint64(seed) }

// NewSavableRNG returns a deterministic RNG whose full state State reads.
// math/rand's Rand buffers nothing for the draw methods RNG exposes, so two
// savable RNGs with equal State draw the same values from there on.
func NewSavableRNG(seed int64) *RNG {
	src := &splitmix64{state: uint64(seed)}
	return &RNG{r: rand.New(src), src: src}
}

// State returns the generator state word. ok is false when the RNG was not
// built with NewSavableRNG (the default source is not serialisable).
func (g *RNG) State() (state uint64, ok bool) {
	if g.src == nil {
		return 0, false
	}
	return g.src.state, true
}

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
