// Package prune implements the magnitude-pruning half of Edge-LLM's
// layerwise unified compression: unstructured top-k magnitude pruning with
// arbitrary per-layer ratios, hardware-friendly N:M semi-structured
// pruning, reusable masks, and the error metrics the LUC sensitivity probe
// consumes.
package prune

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"edgellm/internal/tensor"
)

// Mask records which elements of a tensor survive pruning. Masks let a
// pruning decision be re-applied after weight updates (mask persistence
// during tuning) and support storage accounting.
type Mask struct {
	Keep  []bool
	Shape []int
}

// NewMask returns an all-keep mask for the given shape.
func NewMask(shape ...int) *Mask {
	n := 1
	for _, d := range shape {
		n *= d
	}
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = true
	}
	return &Mask{Keep: keep, Shape: append([]int(nil), shape...)}
}

// Apply zeroes the masked-out elements of t in place.
func (m *Mask) Apply(t *tensor.Tensor) {
	if len(m.Keep) != t.Len() {
		panic(fmt.Sprintf("prune: mask of %d elements applied to tensor of %d", len(m.Keep), t.Len()))
	}
	for i, keep := range m.Keep {
		if !keep {
			t.Data[i] = 0
		}
	}
}

// Sparsity returns the fraction of elements the mask removes.
func (m *Mask) Sparsity() float64 {
	dropped := 0
	for _, keep := range m.Keep {
		if !keep {
			dropped++
		}
	}
	return float64(dropped) / float64(len(m.Keep))
}

// Ranking is a tensor's elements in magnitude order: the order
// MagnitudeMask drops them in. One Ranking serves every ratio, since a
// ratio's drop set is a prefix of it.
type Ranking struct {
	keys  []uint64 // ascending; each key's low 32 bits are its element's index
	shape []int
}

// Rank orders t's elements by ascending magnitude, ties broken by index for
// determinism: the lower index goes first. Each element's key is |v|'s bits
// above its index, so a NaN sorts above +Inf, the same on every run, where a
// float comparator would be inconsistent. The keys are unique, so the order
// is total: the one slices.Sort gives them, here by a stable LSD radix sort
// over the 31 magnitude bits from index order (sortedKeys). It panics on a
// tensor of more than 2³² elements, whose indices the keys cannot hold.
func Rank(t *tensor.Tensor) Ranking {
	if n := t.Len(); uint64(n) > 1<<32 {
		panic(fmt.Sprintf("prune: Rank over %d elements, more than 2³²", n))
	}
	return Ranking{keys: sortedKeys(t.Data), shape: append([]int(nil), t.Shape...)}
}

// sortedKeys returns data's keys, |v|'s bits above v's index, in ascending
// order: three stable counting-sort passes over the magnitude's 11-, 11- and
// 9-bit digits, least significant first, from the keys in index order, so
// equal magnitudes keep their index order. The digits are counted as the
// keys are built; a pass whose digit every key shares is skipped.
func sortedKeys(data []float32) []uint64 {
	const bits, mask = 11, 1<<11 - 1
	keys := make([]uint64, len(data))
	var counts [3][1 << bits]int
	for i, v := range data {
		mag := math.Float32bits(v) &^ (1 << 31)
		keys[i] = uint64(mag)<<32 | uint64(i)
		counts[0][mag&mask]++
		counts[1][mag>>bits&mask]++
		counts[2][mag>>(2*bits)&mask]++
	}
	var buf []uint64
	for d := range counts {
		count := &counts[d]
		if slices.Contains(count[:], len(keys)) {
			continue
		}
		if buf == nil {
			buf = make([]uint64, len(keys))
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		shift := uint(32 + d*bits)
		for _, k := range keys {
			digit := k >> shift & mask
			buf[count[digit]] = k
			count[digit]++
		}
		keys, buf = buf, keys
	}
	return keys
}

// Mask drops the first round(ratio·n) ranked elements — the `ratio`
// fraction with the smallest magnitude. ratio is clamped to [0,1]; a NaN
// ratio panics. A lower ratio's mask drops a subset of what a higher one
// drops.
func (r Ranking) Mask(ratio float64) *Mask {
	m := NewMask(r.shape...)
	for _, key := range r.keys[:dropCount(len(r.keys), ratio)] {
		m.Keep[uint32(key)] = false
	}
	return m
}

// Prune zeroes in t the elements Mask(ratio) drops, without building the
// mask. t must have the ranked tensor's element count.
func (r Ranking) Prune(t *tensor.Tensor, ratio float64) {
	if t.Len() != len(r.keys) {
		panic(fmt.Sprintf("prune: ranking of %d elements applied to tensor of %d", len(r.keys), t.Len()))
	}
	for _, key := range r.keys[:dropCount(len(r.keys), ratio)] {
		t.Data[uint32(key)] = 0
	}
}

// dropCount is round(ratio·n) with ratio clamped to [0,1]. A NaN ratio has
// no count and panics.
func dropCount(n int, ratio float64) int {
	if math.IsNaN(ratio) {
		panic(fmt.Sprintf("prune: pruning ratio %v is not a number", ratio))
	}
	return int(math.Round(math.Min(math.Max(ratio, 0), 1) * float64(n)))
}

// MagnitudeMask builds a mask that drops the `ratio` fraction of t's
// elements with the smallest absolute value, in Rank's order (a NaN sorts
// above +Inf, so it goes last). ratio is clamped to [0,1]; a NaN ratio
// panics.
func MagnitudeMask(t *tensor.Tensor, ratio float64) *Mask {
	if dropCount(t.Len(), ratio) == 0 {
		return NewMask(t.Shape...)
	}
	return Rank(t).Mask(ratio)
}

// NMMask builds an N:M semi-structured mask over a rank-2 tensor: within
// every group of m consecutive elements along each row, only the n largest
// by magnitude survive. (2:4 is the pattern edge accelerators execute
// natively.) Rows whose length is not a multiple of m keep the remainder
// unpruned.
func NMMask(t *tensor.Tensor, n, m int) *Mask {
	if n <= 0 || m <= 0 || n > m {
		panic(fmt.Sprintf("prune: invalid N:M pattern %d:%d", n, m))
	}
	rows, cols := t.Rows(), t.Cols()
	mask := NewMask(t.Shape...)
	var order [16]int
	for r := 0; r < rows; r++ {
		row := t.Row(r)
		for c0 := 0; c0+m <= cols; c0 += m {
			group := row[c0 : c0+m]
			ord := order[:0]
			for i := range group {
				ord = append(ord, i)
			}
			sort.Slice(ord, func(a, b int) bool {
				va := math.Abs(float64(group[ord[a]]))
				vb := math.Abs(float64(group[ord[b]]))
				if va != vb {
					return va > vb
				}
				return ord[a] < ord[b]
			})
			for _, i := range ord[n:] {
				mask.Keep[r*cols+c0+i] = false
			}
		}
	}
	return mask
}
