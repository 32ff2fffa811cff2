package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"edgellm/internal/tensor"
)

// linger is how long the decoder's helpers poll after a step.
const linger = tensor.TeamLinger

// eachLaneCount runs fn in one subtest per lane count from 1 to 4: every
// decoder built inside gets that many lanes, whatever GOMAXPROCS and NumCPU
// say. Four lanes on a host of fewer cores is an oversubscribed team.
func eachLaneCount(t *testing.T, fn func(t *testing.T, lanes int)) {
	for lanes := 1; lanes <= 4; lanes++ {
		t.Run(fmt.Sprintf("lanes%d", lanes), func(t *testing.T) {
			defer func(old int) { forcedLanes = old }(forcedLanes)
			forcedLanes = lanes
			fn(t, lanes)
		})
	}
}

// TestDecoderIdentityAtEveryLaneCount runs the decode identity tests, as
// they stand, at 1 to 4 lanes: Model.Logits, solo, batched, packed and
// adapter decodes all give the same bits whichever lane computes which
// column block or attention row.
func TestDecoderIdentityAtEveryLaneCount(t *testing.T) {
	eachLaneCount(t, func(t *testing.T, _ int) {
		t.Run("MatchesFullForward", TestDecoderMatchesFullForward)
		t.Run("RunsMatchLegacy", TestDecoderRunsMatchLegacy)
		t.Run("BatchMatchesIndependentDecoders", TestDecoderBatchMatchesIndependentDecoders)
		t.Run("MixedAdapterSlotsMatchSolo", TestDecoderMixedAdapterSlotsMatchSolo)
		t.Run("PackedDecodeBitwiseMatchesFakeQuant", TestPackedDecodeBitwiseMatchesFakeQuant)
		t.Run("PackedAdapterMatchesUnpackedAdapter", TestPackedAdapterMatchesUnpackedAdapter)
		t.Run("AdapterSidePathMatchesMergedWeights", TestAdapterSidePathMatchesMergedWeights)
		t.Run("SetAdapterRestoreExact", TestSetAdapterRestoreExact)
		t.Run("AdapterChangesGeneration", TestAdapterChangesGeneration)
	})
}

// unitRecorder is a phase that counts the runs of each unit.
type unitRecorder struct {
	ph   *phase
	runs []int32
}

func (r *unitRecorder) RunUnit(lane, u int) {
	atomic.AddInt32(&r.runs[u], 1)
	r.ph.RunUnit(lane, u)
}

// laneProduct runs out = x·w (or x·p) as one phase of d's team and returns
// how many times each unit ran.
func laneProduct(d *Decoder, out, x, w *tensor.Tensor, p tensor.PackedMat) []int32 {
	d.ph.x, d.ph.mats[0] = x, projection{out: out, w: w, p: p}
	units := (out.Cols() + tensor.BlockCols - 1) / tensor.BlockCols
	d.ph.ends[0] = units
	if p != nil {
		d.pscratch.Reserve(d.team.Lanes(), x.Rows(), x.Cols(), out.Cols())
	}
	rec := &unitRecorder{ph: &d.ph, runs: make([]int32, units)}
	d.team.Start()
	defer d.team.Park()
	d.team.Run(rec, units)
	return rec.runs
}

// TestLaneSplitLastBlockNarrow splits a 200-column product (3 × 64 + 8)
// over 2 to 4 lanes: four units, each run exactly once, the last one the
// 8-column remainder, and the product equal to the one-call kernel bit for
// bit, float32 and packed.
func TestLaneSplitLastBlockNarrow(t *testing.T) {
	const k, n = 96, 200
	g := tensor.NewRNG(3)
	w := g.Normal(0, 1, k, n)
	pm := packTensor(t, w)
	for _, rows := range []int{1, 2, 5, 16} {
		x := g.Normal(0, 1, rows, k)
		want, wantP := tensor.New(rows, n), tensor.New(rows, n)
		tensor.MatMulInto(want, x, w)
		tensor.MatMulPackedInto(wantP, x, pm, nil)
		for lanes := 2; lanes <= 4; lanes++ {
			d := laneDecoder(lanes)
			for _, c := range []struct {
				name   string
				p      tensor.PackedMat
				expect *tensor.Tensor
			}{{"float32", nil, want}, {"packed4", pm, wantP}} {
				got := tensor.New(rows, n)
				ran := laneProduct(d, got, x, w, c.p)
				if len(ran) != 4 {
					t.Fatalf("%d columns cut into %d units, want 4", n, len(ran))
				}
				for u, runs := range ran {
					if runs != 1 {
						t.Fatalf("%s rows %d lanes %d: unit %d ran %d times", c.name, rows, lanes, u, runs)
					}
				}
				rowsBitsEqual(t, fmt.Sprintf("%s rows %d lanes %d", c.name, rows, lanes), got.Data, c.expect.Data)
			}
			d.Close()
		}
	}
}

// TestLaneBoundarySpecials puts ±0, NaN and ±Inf where lanes meet: special
// activations against weights that are special in the columns either side of
// the 64-column boundary (63, 64) and of the last one (127, 128), so a
// boundary column that took another lane's sums, skipped a zero activation or
// summed in another order shows up as a moved bit, NaN payload included.
func TestLaneBoundarySpecials(t *testing.T) {
	const k, n = 12, 160
	inf, nan, negZero := float32(math.Inf(1)), float32(math.NaN()), float32(math.Copysign(0, -1))
	g := tensor.NewRNG(4)
	w := g.Normal(0, 1, k, n)
	for kk := 0; kk < k; kk++ {
		for _, j := range []int{63, 64, 127, 128} {
			w.Set(kk, j, []float32{inf, -inf, nan, negZero, 0, 1e38}[(kk+j)%6])
		}
	}
	x := g.Normal(0, 1, 4, k)
	for i, v := range []float32{0, negZero, nan, inf, -inf, 1e-45} {
		x.Data[i*2] = v
		x.Data[k+i] = v
	}
	for kk := range k {
		x.Data[2*k+kk] = negZero // a row of -0: every product skipped
	}
	want := tensor.New(4, n)
	tensor.MatMulInto(want, x, w)
	for lanes := 2; lanes <= 4; lanes++ {
		d := laneDecoder(lanes)
		got := tensor.New(4, n)
		laneProduct(d, got, x, w, nil)
		rowsBitsEqual(t, fmt.Sprintf("lanes %d", lanes), got.Data, want.Data)
		d.Close()
	}
}

// laneDecoder is a decoder with the given lane count over a small model, for
// driving its team directly.
func laneDecoder(lanes int) *Decoder {
	defer func(old int) { forcedLanes = old }(forcedLanes)
	forcedLanes = lanes
	d := NewDecoder(tinyModel(5))
	d.pscratch = tensor.NewPackedScratch()
	return d
}

// laneModel is a model whose projections and head span several 64-column
// blocks, so that every phase of a step has units for the helpers.
func laneModel(seed int64) *Model {
	return NewModel(Config{Vocab: 200, Dim: 128, Heads: 4, Layers: 2, Hidden: 256, MaxSeq: 48}, tensor.NewRNG(seed))
}

// packTensor packs w the way PackModel packs a block weight at 4 bits.
func packTensor(t *testing.T, w *tensor.Tensor) tensor.PackedMat {
	t.Helper()
	cfg := Config{Vocab: 8, Dim: w.Rows(), Heads: 1, Layers: 1, Hidden: w.Cols(), MaxSeq: 2}
	m := NewModel(cfg, tensor.NewRNG(1))
	copy(m.Blocks[0].MLP.Up.W.Data.Data, w.Data)
	return pack4(t, m).mats[0][wmUp]
}

// settledGoroutines returns the goroutine count once the cleanups of
// decoders other tests left unclosed have run.
func settledGoroutines() int {
	n := -1
	for range 50 {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			return m
		}
		n = m
	}
	return n
}

// goroutinesReach reports whether the goroutine count comes down to want
// within a second: a helper has returned from its function once Close has
// waited for it, but leaves the count a moment later.
func goroutinesReach(want int) (int, bool) {
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); got != want && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return got, got == want
}

// TestDecoderCloseStopsHelpers: Close stops every helper, and a decoder
// dropped without Close has its helpers stopped once the collector finds it
// unreachable; either way the goroutine count returns to its starting value.
func TestDecoderCloseStopsHelpers(t *testing.T) {
	laneDecoder(2).Close() // the runtime's own goroutines for cleanups, started once
	base := settledGoroutines()
	for lanes := 2; lanes <= 4; lanes++ {
		d := laneDecoder(lanes)
		if got := runtime.NumGoroutine(); got != base+lanes-1 {
			t.Fatalf("lanes %d: %d goroutines after NewDecoder, want %d + %d helpers", lanes, got, base, lanes-1)
		}
		mustStep(t, d, 1)
		d.Close()
		if got, ok := goroutinesReach(base); !ok {
			t.Fatalf("lanes %d: %d goroutines after Close, want %d", lanes, got, base)
		}
	}
	func() {
		d := laneDecoder(3)
		mustStep(t, d, 2)
	}()
	if got := settledGoroutines(); got != base {
		t.Fatalf("%d goroutines after an unclosed decoder became unreachable, want %d", got, base)
	}
}

// TestDecoderHelpersAcrossLinger steps with gaps on both sides of linger, so
// that steps find their helpers polling, falling asleep or asleep: every
// step's logits equal a one-lane decoder's.
func TestDecoderHelpersAcrossLinger(t *testing.T) {
	m := laneModel(6)
	ref := func() *Decoder {
		defer func(old int) { forcedLanes = old }(forcedLanes)
		forcedLanes = 1
		return NewDecoder(m)
	}()
	defer ref.Close()
	gaps := []time.Duration{0, linger / 2, linger, linger + linger/4, 2 * linger, 0, 200 * time.Microsecond}
	for lanes := 2; lanes <= 4; lanes++ {
		ref.Reset()
		d := func() *Decoder {
			defer func(old int) { forcedLanes = old }(forcedLanes)
			forcedLanes = lanes
			return NewDecoder(m)
		}()
		for i := range m.Cfg.MaxSeq {
			if gap := gaps[i%len(gaps)]; gap > 0 {
				for end := time.Now().Add(gap); time.Now().Before(end); {
				}
			}
			tok := (i*7 + lanes) % m.Cfg.Vocab
			rowsBitsEqual(t, fmt.Sprintf("lanes %d step %d", lanes, i), mustStep(t, d, tok), mustStep(t, ref, tok))
		}
		d.Close()
	}
}

// TestDecoderStepAllocatesNothingAtEveryLaneCount runs steps at 1 to 4 lanes
// under GOMAXPROCS 4, back to back (helpers polling) and spaced past linger
// (helpers woken each step), after a collection has emptied the runtime's
// central caches: no step allocates, as the decode benchmarks' 0 B/op gates
// require on a 4-core host.
func TestDecoderStepAllocatesNothingAtEveryLaneCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	m := laneModel(7)
	eachLaneCount(t, func(t *testing.T, lanes int) {
		d := NewBatchDecoder(m, 2, tensor.NewPool())
		defer d.Close()
		a, errA := d.Acquire()
		b, errB := d.Acquire()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		tokens, slots := []int{1, 2}, []int{a, b}
		steps := func(n int, gap time.Duration) {
			for i := range n {
				if d.arena.Len(a) >= m.Cfg.MaxSeq {
					d.Reset()
					d.Acquire()
					d.Acquire()
				}
				tokens[0], tokens[1] = i%m.Cfg.Vocab, (i+3)%m.Cfg.Vocab
				if _, err := d.StepBatch(tokens, slots); err != nil {
					t.Fatal(err)
				}
				for end := time.Now().Add(gap); time.Now().Before(end); {
				}
			}
		}
		gap := 4 * linger
		steps(200, 0)
		steps(50, gap)
		// A window can catch the runtime's own background work (the
		// scavenger growing a timer heap, a thread started for a woken P
		// the first time the process needs one): pass on the first clean
		// window of three. A step that allocates dirties all three.
		var n, by uint64
		for range 3 {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			steps(400, 0)
			steps(100, gap)
			runtime.ReadMemStats(&after)
			if n, by = after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc; n == 0 {
				return
			}
		}
		t.Fatalf("500 steps at %d lanes allocated %d times, %d bytes, in each of three windows", lanes, n, by)
	})
}
