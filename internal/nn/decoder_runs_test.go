package nn

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"edgellm/internal/tensor"
)

// runsTestCfg's projections and LM head span two to eight 64-column blocks,
// so a decoder of two or more lanes splits every one of them
// (TestDecoderIdentityAtEveryLaneCount runs the harness at 1 to 4 lanes).
func runsTestCfg() Config {
	return Config{Vocab: 96, Dim: 128, Heads: 4, Layers: 2, Hidden: 512, MaxSeq: 40}
}

// TestDecoderRunsMatchLegacy is the decode path's differential harness:
// random schedules of multi-row runs — sequences of 1 to MaxSeq tokens
// joining and leaving between steps, sitting steps out, run lengths from 1 to
// everything a step holds, 1 to 8 slots — must give, for every run's last
// row, the bits of that position's row of referenceLogits: one Model.Logits
// over the whole sequence. (The name predates that reference and is kept so
// the test's IDs stay stable.) Run on float32 and packed-4 weights, on the
// base model and with an adapter set (on the decoder and, as LoRA hooks, on
// the reference), at GOMAXPROCS 1 and N; the arena must read 0 bytes after
// every schedule.
// The hd12 model's head dimension is not a multiple of 8, so every head's
// context sums run an AVX2 lane group and the Go tail; its MaxSeq, 44, ends
// in a key tile 12 positions wide.
func TestDecoderRunsMatchLegacy(t *testing.T) {
	const seed, schedules = 41, 2
	for _, model := range []struct {
		prefix string
		cfg    Config
	}{
		{"", runsTestCfg()},
		{"hd12/", Config{Vocab: 96, Dim: 96, Heads: 8, Layers: 2, Hidden: 192, MaxSeq: 44}},
	} {
		cfg := model.cfg
		adapters := map[string]*Adapter{"": nil, "+adapter": fullAdapter(t, "runs", 43, cfg, 4)}
		for _, packed := range []bool{false, true} {
			m := NewModel(cfg, tensor.NewRNG(seed))
			ref, name := m, model.prefix+"float32"
			var pm *PackedModel
			if packed {
				pm = pack4(t, m)
				ref, name = packedRefModel(cfg, seed, pm), model.prefix+"packed4"
			}
			for suffix, adapter := range adapters {
				for _, procs := range []int{1, max(8, runtime.NumCPU())} {
					t.Run(fmt.Sprintf("%s%s/procs%d", name, suffix, procs), func(t *testing.T) {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						g := tensor.NewRNG(seed + int64(procs))
						for i := 0; i < schedules; i++ {
							d := NewBatchDecoder(m, 1+g.Intn(8), tensor.NewPool())
							if err := d.SetPacked(pm); err != nil {
								t.Fatal(err)
							}
							if err := d.SetAdapter(adapter); err != nil {
								t.Fatal(err)
							}
							runRandomSchedule(t, d, ref, adapter, g)
							d.Close()
						}
					})
				}
			}
		}
	}
}

// runRandomSchedule drives d through one random schedule, checking every
// returned row against referenceLogits over ref under the same adapter.
func runRandomSchedule(t *testing.T, d *Decoder, ref *Model, adapter *Adapter, g *tensor.RNG) {
	t.Helper()
	cfg := ref.Cfg
	type sequence struct {
		slot   int
		tokens []int
		fed    int
		want   *tensor.Tensor // referenceLogits over tokens
	}
	pending := make([]*sequence, 2+2*d.Slots())
	for i := range pending {
		sq := &sequence{tokens: make([]int, 1+g.Intn(cfg.MaxSeq))}
		for j := range sq.tokens {
			sq.tokens[j] = g.Intn(cfg.Vocab)
		}
		sq.want = referenceLogits(ref, adapter, sq.tokens)
		pending[i] = sq
	}
	var active []*sequence
	for len(pending)+len(active) > 0 {
		for len(pending) > 0 && d.arena.InUse() < d.Slots() && (len(active) == 0 || g.Intn(2) == 0) {
			s, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			pending[0].slot = s
			active, pending = append(active, pending[0]), pending[1:]
		}
		// Some of the active sequences ride this step, each with one row
		// plus a random share of the rows the step has left.
		var riders []*sequence
		for _, sq := range active {
			if g.Intn(4) > 0 {
				riders = append(riders, sq)
			}
		}
		if len(riders) == 0 {
			riders = active[:1]
		}
		spare := d.Slots() + PrefillRows - len(riders)
		var tokens, slots, runLens []int
		for _, sq := range riders {
			n := 1 + g.Intn(min(len(sq.tokens)-sq.fed-1, spare)+1)
			spare -= n - 1
			tokens = append(tokens, sq.tokens[sq.fed:sq.fed+n]...)
			for j := 0; j < n; j++ {
				slots = append(slots, sq.slot)
			}
			runLens = append(runLens, n)
		}
		rows, err := d.StepBatch(tokens, slots)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != len(riders) {
			t.Fatalf("%d runs returned %d rows", len(riders), len(rows))
		}
		for r, sq := range riders {
			sq.fed += runLens[r]
			rowsBitsEqual(t, fmt.Sprintf("run of %d ending at position %d", runLens[r], sq.fed-1), rows[r], sq.want.Row(sq.fed-1))
			if d.arena.Len(sq.slot) != sq.fed {
				t.Fatalf("slot %d at %d after %d tokens", sq.slot, d.arena.Len(sq.slot), sq.fed)
			}
		}
		kept := active[:0]
		for _, sq := range active {
			if sq.fed == len(sq.tokens) {
				d.Release(sq.slot)
			} else {
				kept = append(kept, sq)
			}
		}
		active = kept
	}
	if d.arena.InUse() != 0 || d.ArenaActiveBytes() != 0 {
		t.Fatalf("schedule over but %d slots / %d bytes active", d.arena.InUse(), d.ArenaActiveBytes())
	}
}

// TestDecoderRunValidation pins StepBatch's rejections for multi-row runs:
// each wraps ErrBadBatch and leaves every cache length and seen flag where it
// was, and so does a step that panics after its first K/V writes.
func TestDecoderRunValidation(t *testing.T) {
	// MaxSeq 20: a whole 16-row run fits behind two cached tokens, and a run
	// of all 19 rows the step holds does not.
	cfg := Config{Vocab: 17, Dim: 16, Heads: 4, Layers: 3, Hidden: 32, MaxSeq: 20}
	m := NewModel(cfg, tensor.NewRNG(77))
	d := NewBatchDecoder(m, 3, nil)
	defer d.Close()
	for i := 0; i < 2; i++ {
		if _, err := d.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.StepBatch([]int{1, 2, 3}, []int{0, 0, 1}); err != nil {
		t.Fatal(err)
	}
	repeat := func(v, n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = v
		}
		return out
	}
	unchanged := func(name string) {
		t.Helper()
		if d.arena.Len(0) != 2 || d.arena.Len(1) != 1 {
			t.Fatalf("%s moved lengths to %d,%d", name, d.arena.Len(0), d.arena.Len(1))
		}
		for s, seen := range d.seen {
			if seen {
				t.Fatalf("%s left slot %d marked seen", name, s)
			}
		}
	}
	for _, tc := range []struct {
		name          string
		tokens, slots []int
		want          string
	}{
		{"slot in two non-adjacent runs", []int{1, 2, 3, 4}, []int{0, 0, 1, 0}, "two runs"},
		{"run crossing MaxSeq", repeat(1, cfg.MaxSeq-1), repeat(0, cfg.MaxSeq-1), "MaxSeq"},
		{"bad token inside a run", []int{1, 2, cfg.Vocab, 3}, []int{1, 0, 0, 0}, "token"},
		{"negative token ending a run", []int{1, -1}, []int{0, 0}, "token"},
		{"more rows than the scratch holds", repeat(1, cfg.MaxSeq), repeat(1, cfg.MaxSeq), "rows exceed"},
		{"run on a free slot", []int{1, 2, 3}, []int{0, 2, 2}, "not acquired"},
	} {
		_, err := d.StepBatch(tc.tokens, tc.slots)
		if !errors.Is(err, ErrBadBatch) || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want ErrBadBatch naming %q", tc.name, err, tc.want)
		}
		unchanged(tc.name)
	}

	// A panic in layer 1 comes after layer 0 cached the whole run's K/V.
	down := m.Blocks[1].MLP.Down.W.Data
	shape := down.Shape
	down.Shape = []int{shape[0] + 1, shape[1]}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("step over a mis-shaped weight did not panic")
			}
		}()
		d.StepBatch(repeat(5, PrefillRows), repeat(0, PrefillRows))
	}()
	down.Shape = shape
	unchanged("panicking step")

	// The same run again lands where it would have: bits equal to a decoder
	// that never saw the rejected and the panicking steps.
	fresh := NewBatchDecoder(m, 1, nil)
	defer fresh.Close()
	for _, tok := range []int{1, 2} {
		mustStep(t, fresh, tok)
	}
	var want []float32
	for i := 0; i < PrefillRows; i++ {
		want = mustStep(t, fresh, 5)
	}
	rows, err := d.StepBatch(repeat(5, PrefillRows), repeat(0, PrefillRows))
	if err != nil {
		t.Fatal(err)
	}
	rowsBitsEqual(t, "run after rejections", rows[0], want)
}

// fullCacheDecoder returns a decoder with all B slots acquired over a
// MaxSeq-512 model with small weights, where attention is the work: 32 rows
// at position 511 of its 256-wide model are 2^23 attention MACs a layer.
func fullCacheDecoder(B int) (*Decoder, []int) {
	cfg := Config{Vocab: 32, Dim: 256, Heads: 8, Layers: 1, Hidden: 64, MaxSeq: 512}
	d := NewBatchDecoder(NewModel(cfg, tensor.NewRNG(5)), B, nil)
	slots := make([]int, B)
	for i := range slots {
		slots[i], _ = d.Acquire() // B slots of a B-slot decoder: cannot fail
	}
	return d, slots
}

// TestAttendAllFanOutMatchesSerial drives one big attention call — 32 rows
// at position 511 of fullCacheDecoder's model — at one lane and split by
// rows over 2 to 4 lanes: rows are independent, so the context rows must
// agree bit for bit.
func TestAttendAllFanOutMatchesSerial(t *testing.T) {
	const B = 32
	attend := func(lanes int) []float32 {
		defer func(old int) { forcedLanes = old }(forcedLanes)
		forcedLanes = lanes
		d, slots := fullCacheDecoder(B)
		defer d.Close()
		cfg := d.m.Cfg
		for i := range slots {
			d.pos[i] = cfg.MaxSeq - 1 // every row attends over a full cache
		}
		g := tensor.NewRNG(6)
		copy(d.arena.k.Data, g.Normal(0, 1, len(d.arena.k.Data)).Data)
		copy(d.arena.v.Data, g.Normal(0, 1, len(d.arena.v.Data)).Data)
		q := g.Normal(0, 1, B, cfg.Dim).Data
		ctx := make([]float32, B*cfg.Dim)
		if d.team != nil {
			d.team.start()
			defer d.team.park()
		}
		d.attendAll(0, B, slots, q, ctx)
		return ctx
	}
	serial := attend(1)
	for lanes := 2; lanes <= 4; lanes++ {
		rowsBitsEqual(t, fmt.Sprintf("%d lanes vs one", lanes), attend(lanes), serial)
	}
}
