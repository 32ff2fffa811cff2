package prune

import (
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"edgellm/internal/tensor"
)

func TestMagnitudeMaskExactRatio(t *testing.T) {
	g := tensor.NewRNG(1)
	w := g.Normal(0, 1, 10, 10)
	for _, ratio := range []float64{0, 0.25, 0.5, 0.9, 1} {
		m := MagnitudeMask(w, ratio)
		if got := m.Sparsity(); math.Abs(got-ratio) > 1e-9 {
			t.Fatalf("ratio %v produced sparsity %v", ratio, got)
		}
	}
}

func TestMagnitudeMaskDropsSmallest(t *testing.T) {
	w := tensor.FromSlice([]float32{0.1, -5, 0.01, 3, -0.2, 7}, 2, 3)
	m := MagnitudeMask(w, 0.5)
	pruned := w.Clone()
	m.Apply(pruned)
	// The three smallest |values| are 0.01, 0.1, 0.2 — all must be zeroed.
	want := []float32{0, -5, 0, 3, 0, 7}
	for i, v := range want {
		if pruned.Data[i] != v {
			t.Fatalf("pruned %v, want %v", pruned.Data, want)
		}
	}
}

// magnitudeMaskRef is MagnitudeMask as a comparator sort: |v| ascending in
// float64, NaN above +Inf, ties to the lower index. It is the order the keys
// must give on every tensor whose NaNs share one payload.
func magnitudeMaskRef(t *tensor.Tensor, drop int) []bool {
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		va, vb := math.Abs(float64(t.Data[idx[a]])), math.Abs(float64(t.Data[idx[b]]))
		if na, nb := math.IsNaN(va), math.IsNaN(vb); na != nb {
			return nb
		}
		if va != vb && !math.IsNaN(va) {
			return va < vb
		}
		return idx[a] < idx[b]
	})
	keep := make([]bool, t.Len())
	for i := range keep {
		keep[i] = true
	}
	for _, i := range idx[:drop] {
		keep[i] = false
	}
	return keep
}

// TestMagnitudeMaskMatchesComparatorSort: on values drawn from a few
// magnitudes of both signs (ties everywhere, ±0 and ±Inf among them), the
// key sort drops exactly what the comparator sort drops, at every ratio.
func TestMagnitudeMaskMatchesComparatorSort(t *testing.T) {
	levels := []float32{0, 1e-40, 0.5, 0.5000001, 2, float32(math.Inf(1))}
	g := tensor.NewRNG(5)
	w := tensor.New(13, 11)
	for i := range w.Data {
		w.Data[i] = levels[g.Intn(len(levels))]
		if g.Intn(2) == 0 {
			w.Data[i] = -w.Data[i]
		}
	}
	for drop := 0; drop <= w.Len(); drop += 7 {
		ratio := float64(drop) / float64(w.Len())
		want := magnitudeMaskRef(w, drop)
		got := MagnitudeMask(w, ratio).Keep
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("drop %d: element %d (%v) keep=%v, comparator sort %v", drop, i, w.Data[i], got[i], want[i])
			}
		}
	}
}

// TestRankPrefixMatchesMagnitudeMask: one Rank serves every ratio. Its
// prefix mask equals MagnitudeMask and the comparator sort at each ratio,
// clamped ones included, on values with NaN, ±0, ±Inf and ties everywhere;
// and a lower ratio's mask drops a subset of what a higher one drops.
func TestRankPrefixMatchesMagnitudeMask(t *testing.T) {
	nan := float32(math.NaN())
	levels := []float32{0, 1e-40, 0.5, 0.5000001, 2, float32(math.Inf(1)), nan}
	g := tensor.NewRNG(9)
	w := tensor.New(13, 11)
	for i := range w.Data {
		w.Data[i] = levels[g.Intn(len(levels))]
		if g.Intn(2) == 0 {
			w.Data[i] = -w.Data[i]
		}
	}
	r := Rank(w)
	var prev *Mask
	for _, ratio := range []float64{-0.1, 0, 1e-9, 0.25, 0.5, 0.75, 1, 1.1} {
		got := r.Mask(ratio)
		viaMask := MagnitudeMask(w, ratio).Keep
		want := magnitudeMaskRef(w, int(math.Round(math.Min(math.Max(ratio, 0), 1)*float64(w.Len()))))
		for i := range want {
			if got.Keep[i] != viaMask[i] || got.Keep[i] != want[i] {
				t.Fatalf("ratio %v: element %d (%v) rank keep=%v, MagnitudeMask %v, comparator sort %v",
					ratio, i, w.Data[i], got.Keep[i], viaMask[i], want[i])
			}
			if prev != nil && !prev.Keep[i] && got.Keep[i] {
				t.Fatalf("ratio %v keeps element %d that a lower ratio drops", ratio, i)
			}
		}
		prev = got
	}
}

// TestMagnitudeMaskKeepsNaN: a NaN weight sorts above +Inf, so it is the
// last element dropped and survives any ratio below 1.
func TestMagnitudeMaskKeepsNaN(t *testing.T) {
	w := tensor.FromSlice([]float32{float32(math.NaN()), float32(math.Inf(-1)), 3, -1}, 2, 2)
	keep := MagnitudeMask(w, 0.75).Keep
	if !keep[0] || keep[1] || keep[2] || keep[3] {
		t.Fatalf("keep %v, want only the NaN kept", keep)
	}
}

func TestMagnitudeMaskClampsRatio(t *testing.T) {
	w := tensor.Ones(2, 2)
	if MagnitudeMask(w, -0.5).Sparsity() != 0 {
		t.Fatal("negative ratio must clamp to 0")
	}
	if MagnitudeMask(w, 1.5).Sparsity() != 1 {
		t.Fatal("ratio > 1 must clamp to 1")
	}
	// A NaN ratio has no clamped value: it panics naming the ratio, through
	// MagnitudeMask and a ranking's Prune alike.
	for name, prune := range map[string]func(){
		"MagnitudeMask": func() { MagnitudeMask(w, math.NaN()) },
		"Prune":         func() { Rank(w).Prune(w, math.NaN()) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "ratio NaN") {
					t.Fatalf("%s with a NaN ratio: panic %q, want one naming the ratio", name, msg)
				}
			}()
			prune()
		}()
	}
}

// TestRankMatchesSort: the radix order is the order slices.Sort gives the
// same keys, on values with ±0, denormals, NaNs of several payloads and both
// signs, ±Inf, the largest float32, ties everywhere, and magnitudes spread
// over every digit; on a constant tensor, whose every digit pass is skipped;
// and on one element. A ranking's Prune zeroes exactly what its Mask drops.
func TestRankMatchesSort(t *testing.T) {
	specials := []float32{0, float32(math.Copysign(0, -1)), math.Float32frombits(1),
		math.Float32frombits(0x007fffff), float32(math.NaN()), math.Float32frombits(0xffc00001),
		math.Float32frombits(0x7f800001), float32(math.Inf(1)), float32(math.Inf(-1)),
		math.MaxFloat32, 1, -1, 0.5}
	g := tensor.NewRNG(13)
	spread := g.Normal(0, 1, 97, 61)
	for i := range spread.Data {
		switch {
		case i%5 == 0:
			spread.Data[i] = specials[g.Intn(len(specials))]
		case i%5 == 1:
			spread.Data[i] = math.Float32frombits(uint32(g.Float64() * (1 << 32)))
		}
	}
	for name, w := range map[string]*tensor.Tensor{
		"spread":   spread,
		"constant": tensor.Ones(9, 7),
		"specials": tensor.FromSlice(append([]float32(nil), specials...), 1, len(specials)),
		"single":   tensor.FromSlice([]float32{-2}, 1, 1),
	} {
		want := make([]uint64, w.Len())
		for i, v := range w.Data {
			want[i] = uint64(math.Float32bits(v)&^(1<<31))<<32 | uint64(i)
		}
		slices.Sort(want)
		r := Rank(w)
		if !slices.Equal(r.keys, want) {
			t.Fatalf("%s: radix order differs from slices.Sort", name)
		}
		for _, ratio := range []float64{0, 0.3, 0.5, 1} {
			viaMask, pruned := w.Clone(), w.Clone()
			r.Mask(ratio).Apply(viaMask)
			r.Prune(pruned, ratio)
			for i := range viaMask.Data {
				if math.Float32bits(pruned.Data[i]) != math.Float32bits(viaMask.Data[i]) {
					t.Fatalf("%s ratio %v: element %d Prune %v, Mask %v", name, ratio, i, pruned.Data[i], viaMask.Data[i])
				}
			}
		}
	}
}

func TestPruneInPlaceSetsSparsity(t *testing.T) {
	g := tensor.NewRNG(2)
	w := g.Normal(0, 1, 8, 8)
	MagnitudeMask(w, 0.75).Apply(w)
	if got := w.Sparsity(); math.Abs(got-0.75) > 1e-9 {
		t.Fatalf("tensor sparsity %v after 75%% prune", got)
	}
}

func TestMaskReapplicable(t *testing.T) {
	g := tensor.NewRNG(3)
	w := g.Normal(0, 1, 6, 6)
	m := MagnitudeMask(w, 0.5)
	m.Apply(w)
	// simulate a dense gradient update that repopulates pruned slots
	for i := range w.Data {
		w.Data[i] += 0.3
	}
	m.Apply(w)
	if got := w.Sparsity(); got < 0.5-1e-9 {
		t.Fatalf("re-applied mask left sparsity %v", got)
	}
}

func TestNMMaskPattern(t *testing.T) {
	g := tensor.NewRNG(4)
	w := g.Normal(0, 1, 4, 16)
	mask := NMMask(w, 2, 4)
	pruned := w.Clone()
	mask.Apply(pruned)
	for r := 0; r < 4; r++ {
		row := pruned.Row(r)
		for c0 := 0; c0 < 16; c0 += 4 {
			alive := 0
			for i := 0; i < 4; i++ {
				if row[c0+i] != 0 {
					alive++
				}
			}
			if alive > 2 {
				t.Fatalf("group at (%d,%d) kept %d of 4", r, c0, alive)
			}
		}
	}
	if got := mask.Sparsity(); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("2:4 sparsity %v, want 0.5", got)
	}
}

func TestNMMaskKeepsLargest(t *testing.T) {
	w := tensor.FromSlice([]float32{1, -9, 0.5, 4}, 1, 4)
	pruned := w.Clone()
	NMMask(w, 2, 4).Apply(pruned)
	want := []float32{0, -9, 0, 4}
	for i, v := range want {
		if pruned.Data[i] != v {
			t.Fatalf("2:4 kept %v, want %v", pruned.Data, want)
		}
	}
}

func TestNMMaskRemainderUnpruned(t *testing.T) {
	w := tensor.Ones(1, 6) // 6 = 4 + 2 remainder
	pruned := w.Clone()
	NMMask(w, 2, 4).Apply(pruned)
	if pruned.Data[4] != 1 || pruned.Data[5] != 1 {
		t.Fatal("remainder columns must stay unpruned")
	}
}

func TestNMMaskValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid N:M must panic")
		}
	}()
	NMMask(tensor.Ones(2, 4), 5, 4)
}

func TestErrorMonotoneInRatio(t *testing.T) {
	g := tensor.NewRNG(5)
	w := g.Normal(0, 1, 32, 32)
	pruneErr := func(ratio float64) float64 {
		p := w.Clone()
		MagnitudeMask(p, ratio).Apply(p)
		return tensor.MSE(p, w)
	}
	prev := -1.0
	for _, ratio := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		e := pruneErr(ratio)
		if e < prev {
			t.Fatalf("pruning error must grow with ratio: %v < %v at %v", e, prev, ratio)
		}
		prev = e
	}
	if pruneErr(0) != 0 {
		t.Fatal("zero-ratio pruning must be lossless")
	}
}

func TestPropMaskSparsityMatchesTensor(t *testing.T) {
	f := func(seed int64, r8 uint8) bool {
		ratio := float64(r8) / 255
		g := tensor.NewRNG(seed)
		w := g.Normal(0, 1, 9, 7)
		m := MagnitudeMask(w, ratio)
		m.Apply(w)
		// Normal() never produces exact zeros, so tensor sparsity must
		// equal mask sparsity exactly.
		return math.Abs(w.Sparsity()-m.Sparsity()) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropPrunedValuesAreSmallest(t *testing.T) {
	f := func(seed int64) bool {
		g := tensor.NewRNG(seed)
		w := g.Normal(0, 1, 8, 8)
		pruned := w.Clone()
		MagnitudeMask(pruned, 0.5).Apply(pruned)
		// max |dropped| must be ≤ min |kept|
		var maxDropped, minKept float64 = 0, math.Inf(1)
		for i := range w.Data {
			a := math.Abs(float64(w.Data[i]))
			if pruned.Data[i] == 0 {
				if a > maxDropped {
					maxDropped = a
				}
			} else if a < minKept {
				minKept = a
			}
		}
		return maxDropped <= minKept
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
