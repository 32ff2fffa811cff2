package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// soloSteps decodes a request one token per Step on a single-slot decoder
// under the request's adapter, sampling as the scheduler does. It never feeds
// a run, so it is the reference chunked prefill is held to (Decoder.Generate
// feeds runs itself).
func soloSteps(t *testing.T, m *nn.Model, pm *nn.PackedModel, req Request) []int {
	t.Helper()
	d := nn.NewBatchDecoder(m, 1, nil)
	defer d.Close()
	if err := d.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	if err := d.SetAdapter(req.Adapter); err != nil {
		t.Fatal(err)
	}
	var logits []float32
	var err error
	for _, tok := range req.Prompt {
		if logits, err = d.Step(tok); err != nil {
			t.Fatal(err)
		}
	}
	g := tensor.NewRNG(req.Cfg.Seed)
	out := append([]int(nil), req.Prompt...)
	for {
		next := nn.SampleLogits(logits, req.Cfg, g)
		if out = append(out, next); len(out) == len(req.Prompt)+req.Cfg.MaxTokens {
			return out
		}
		if logits, err = d.Step(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSchedulerRandomSchedulesMatchSoloSteps is the serving half of the
// differential harness: random schedules through the scheduler — 1 to 8
// slots, prompts of 1 to MaxSeq−out tokens (shorter than the row budget, not
// a multiple of it, several sharing it), streams joining from the queue and
// from mid-run submissions, leaving as they finish, and cancelled mid-prefill
// and mid-decode — must give every surviving stream the tokens of a
// token-at-a-time solo decode under the same adapter, on float32 and packed-4
// weights, with every request on the base model and with requests drawing
// from {base, adapter A, adapter B}, at GOMAXPROCS 1 and N, and leave the
// arena at 0 bytes.
func TestSchedulerRandomSchedulesMatchSoloSteps(t *testing.T) {
	const seed, schedules = 97, 2
	// Big enough that a 16-row step takes the kernels' parallel paths.
	cfg := nn.Config{Vocab: 96, Dim: 128, Heads: 4, Layers: 2, Hidden: 512, MaxSeq: 40}
	adapterSets := map[string][]*nn.Adapter{
		"":          {nil},
		"+adapters": {nil, makeTestAdapter(t, "A", 100, cfg), makeTestAdapter(t, "B", 200, cfg)},
	}
	for _, packed := range []bool{false, true} {
		m, name := nn.NewModel(cfg, tensor.NewRNG(seed)), "float32"
		var pm *nn.PackedModel
		if packed {
			var err error
			if pm, err = nn.PackModel(m, []nn.PackSpec{{Bits: 4}, {Bits: 4}}, nil); err != nil {
				t.Fatal(err)
			}
			name = "packed4"
		}
		for suffix, adapters := range adapterSets {
			for _, procs := range []int{1, max(8, runtime.NumCPU())} {
				t.Run(fmt.Sprintf("%s%s/procs%d", name, suffix, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					g := tensor.NewRNG(seed + int64(procs))
					midPrefill := 0
					for i := 0; i < schedules; i++ {
						midPrefill += runRandomServeSchedule(t, m, pm, adapters, 1+g.Intn(8), g)
					}
					if midPrefill == 0 {
						t.Fatal("no cancellation landed mid-prefill: the schedules do not cover it")
					}
				})
			}
		}
	}
}

// runRandomServeSchedule runs one random schedule, each request under a random
// one of adapters, and returns how many streams it cancelled with part of
// their prompt fed.
func runRandomServeSchedule(t *testing.T, m *nn.Model, pm *nn.PackedModel, adapters []*nn.Adapter, slots int, g *tensor.RNG) (midPrefill int) {
	t.Helper()
	cfg := m.Cfg
	dec := nn.NewBatchDecoder(m, slots, tensor.NewPool())
	defer dec.Close()
	if err := dec.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	sched := New(dec)

	reqs := make([]Request, 4+2*slots)
	victim := make(map[string]int) // stream ID -> cancel once it has sampled this many (0: mid-prefill)
	for i := range reqs {
		out := 1 + g.Intn(6)
		prompt := make([]int, 1+g.Intn(cfg.MaxSeq-out))
		for j := range prompt {
			prompt[j] = g.Intn(cfg.Vocab)
		}
		reqs[i] = Request{ID: fmt.Sprintf("r%d", i), Prompt: prompt, Adapter: adapters[g.Intn(len(adapters))],
			Cfg: nn.SampleConfig{Temperature: 0.8, TopK: 10, MaxTokens: out, Seed: int64(g.Intn(1 << 20))}}
		if g.Intn(3) == 0 {
			victim[reqs[i].ID] = g.Intn(out)
		}
	}
	var streams []*Stream
	submit := func() {
		st, err := sched.Submit(reqs[len(streams)])
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	// Hooks run on the scheduler goroutine, between steps, so they may read
	// stream state; a stream cancelled here is retired before the next step.
	samples := 0
	sched.OnSample = func(*Stream, int) {
		if samples++; samples%3 == 0 && len(streams) < len(reqs) {
			submit() // joins mid-run
		}
		for _, st := range streams {
			at, ok := victim[st.ID()]
			if !ok || st.slot < 0 || st.cancelled.Load() {
				continue
			}
			if prefilling := st.fed > 0 && st.fed < len(st.req.Prompt); at == 0 && prefilling {
				midPrefill++
				st.Cancel()
			} else if at > 0 && st.Sampled() == at {
				st.Cancel()
			}
		}
	}
	for len(streams) < len(reqs)/2 {
		submit()
	}
	for {
		if err := sched.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if len(streams) == len(reqs) {
			break
		}
		submit() // the run drained before the hook had submitted everything
	}

	for i, st := range streams {
		res := st.Result()
		if _, ok := victim[res.ID]; ok && errors.Is(res.Err, ErrCancelled) {
			continue
		}
		if res.Err != nil {
			t.Fatalf("stream %s (prompt %d, %d slots) failed: %v", res.ID, len(reqs[i].Prompt), slots, res.Err)
		}
		tokensEqual(t, fmt.Sprintf("%s (prompt %d, %d slots)", res.ID, len(reqs[i].Prompt), slots),
			res.Tokens, soloSteps(t, m, pm, reqs[i]))
	}
	if dec.ActiveSlots() != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("schedule over but %d slots / %d bytes active", dec.ActiveSlots(), dec.ArenaActiveBytes())
	}
	return midPrefill
}

// TestSchedulerDecodingStreamRidesEveryStep pins the inter-token bound: while
// another stream prefills 64 tokens, a decoding stream has a row in every
// step and samples a token from every one of them, so the gap between two of
// its tokens is always exactly one step. It also pins what the step loop
// reports about rows.
func TestSchedulerDecodingStreamRidesEveryStep(t *testing.T) {
	cfg := nn.Config{Vocab: 31, Dim: 16, Heads: 4, Layers: 2, Hidden: 24, MaxSeq: 80}
	m := nn.NewModel(cfg, tensor.NewRNG(98))
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)
	sched := New(dec)

	const outA, outB, promptB = 12, 5, 64
	long := Request{ID: "B", Prompt: make([]int, promptB), Cfg: nn.SampleConfig{MaxTokens: outB}}
	for i := range long.Prompt {
		long.Prompt[i] = (3 * i) % cfg.Vocab
	}
	var order strings.Builder // one letter per sampled token, in order
	var stB *Stream
	sched.OnSample = func(st *Stream, _ int) {
		order.WriteString(st.ID())
		if st.ID() == "A" && st.Sampled() == 2 {
			var err error
			if stB, err = sched.Submit(long); err != nil {
				t.Error(err)
			}
		}
	}
	stA, err := sched.Submit(Request{ID: "A", Prompt: []int{7}, Cfg: nn.SampleConfig{MaxTokens: outA}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Steps 1-2: A alone. Steps 3-6: A beside B's four 16-row runs, the last
	// of which samples B's first token. Steps 7-10: both decode. Then A alone.
	const prefillSteps = promptB / nn.PrefillRows
	want := strings.Repeat("A", 2+prefillSteps-1) + strings.Repeat("AB", outB) + strings.Repeat("A", outA-2-prefillSteps-outB+1)
	if order.String() != want {
		t.Fatalf("sampling order %q, want %q", order.String(), want)
	}
	if got := stA.Timing().Steps; got != outA {
		t.Fatalf("A rode %d steps for %d tokens", got, outA)
	}
	if got := stB.Timing().Steps; got != prefillSteps+outB-1 {
		t.Fatalf("B rode %d steps, want %d prompt runs + %d decode steps", got, prefillSteps, outB-1)
	}
	tokensEqual(t, "A", stA.Result().Tokens, soloSteps(t, m, nil, Request{Prompt: []int{7}, Cfg: nn.SampleConfig{MaxTokens: outA}}))
	tokensEqual(t, "B", stB.Result().Tokens, soloSteps(t, m, nil, long))

	snap := rec.Snapshot()
	rowsFed := int64(1 + (outA - 1) + promptB + (outB - 1))
	if got := snap.Counters["decode.tokens"]; got != rowsFed {
		t.Fatalf("decode.tokens = %d, want %d rows fed", got, rowsFed)
	}
	if got := snap.Counters["decode.prefill_rows"]; got != 1+promptB {
		t.Fatalf("decode.prefill_rows = %d, want %d", got, 1+promptB)
	}
	rows := snap.Dists["decode.step_rows"]
	if rows.Count != outA || rows.Sum != float64(rowsFed) || rows.Max != 1+nn.PrefillRows || snap.Dists["decode.step_ms"].Count != outA {
		t.Fatalf("decode.step_rows = %+v, want %d steps, %d rows, max %d", rows, outA, rowsFed, 1+nn.PrefillRows)
	}
}
