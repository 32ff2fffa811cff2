package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func testModel(seed int64) *nn.Model {
	cfg := nn.Config{Vocab: 31, Dim: 16, Heads: 4, Layers: 2, Hidden: 24, MaxSeq: 32}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

func soloGenerate(t *testing.T, m *nn.Model, prompt []int, cfg nn.SampleConfig) []int {
	t.Helper()
	d := nn.NewDecoder(m)
	out, err := d.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// submitAll submits reqs in order and returns their streams.
func submitAll(t testing.TB, sched *Scheduler, reqs ...Request) []*Stream {
	t.Helper()
	streams := make([]*Stream, len(reqs))
	for i, req := range reqs {
		st, err := sched.Submit(req)
		if err != nil {
			t.Fatalf("submit %s: %v", req.ID, err)
		}
		streams[i] = st
	}
	return streams
}

// serveUntilDone runs Serve until every one of streams has finished, then
// cancels it and requires that cancellation to be what Serve returns.
func serveUntilDone(t testing.TB, sched *Scheduler, streams ...*Stream) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- sched.Serve(ctx) }()
	for _, st := range streams {
		<-st.Done()
	}
	cancel()
	if err := <-served; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve = %v, want context.Canceled", err)
	}
}

func tokensEqual(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d tokens vs %d (%v vs %v)", name, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: token %d = %d, want %d (%v vs %v)", name, i, got[i], want[i], got, want)
		}
	}
}

// TestSchedulerMatchesSoloGenerate submits more streams than the decoder has
// slots — mixed greedy and temperature sampling, staggered lengths — and
// requires every stream's tokens to equal a solo Decoder.Generate run. This
// is the continuous-batching contract: co-batching is invisible.
func TestSchedulerMatchesSoloGenerate(t *testing.T) {
	m := testModel(90)
	pool := tensor.NewPool()
	dec := nn.NewBatchDecoder(m, 2, pool)
	defer dec.Close()

	reqs := []Request{
		{ID: "greedy-a", Prompt: []int{1, 2, 3}, Cfg: nn.SampleConfig{MaxTokens: 5}},
		{ID: "sampled-b", Prompt: []int{7, 8}, Cfg: nn.SampleConfig{Temperature: 0.8, TopK: 5, MaxTokens: 6, Seed: 42}},
		{ID: "greedy-c", Prompt: []int{30, 0, 11, 4}, Cfg: nn.SampleConfig{MaxTokens: 3}},
		{ID: "sampled-d", Prompt: []int{5}, Cfg: nn.SampleConfig{Temperature: 1.2, MaxTokens: 8, Seed: 7}},
		{ID: "greedy-e", Prompt: []int{9, 9, 9}, Cfg: nn.SampleConfig{MaxTokens: 4}},
	}

	sched := New(dec)
	streams := submitAll(t, sched, reqs...)
	serveUntilDone(t, sched, streams...)
	for i, st := range streams {
		res := st.Result()
		if res.Err != nil {
			t.Fatalf("stream %s failed: %v", res.ID, res.Err)
		}
		want := soloGenerate(t, m, reqs[i].Prompt, reqs[i].Cfg)
		tokensEqual(t, res.ID, res.Tokens, want)
	}
	if activeSlots(dec) != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("slots/bytes leaked: %d active, %d bytes", activeSlots(dec), dec.ArenaActiveBytes())
	}
}

// TestSchedulerCancellationReleasesSlot runs twelve streams sampled at
// temperature 0.8 and top-k 40 over four slots, on a 64-wide model with a
// 256-token vocabulary, and cancels S3 and S7 from their token hook at
// their halfway token. It requires: exactly those two end with
// ErrCancelled, their slots are reclaimed (the arena drains to zero bytes),
// and the ten survivors, queued ones included, equal their solo decodes.
func TestSchedulerCancellationReleasesSlot(t *testing.T) {
	const streams, tokens, promptLen = 12, 24, 4
	cfg := nn.Config{Vocab: 256, Dim: 64, Heads: 4, Layers: 2, Hidden: 128, MaxSeq: promptLen + tokens}
	m := nn.NewModel(cfg, tensor.NewRNG(42))
	dec := nn.NewBatchDecoder(m, 4, tensor.NewPool())
	defer dec.Close()

	cancelAtHalf := func(st *Stream, _ int) {
		if st.Sampled() == tokens/2 {
			st.Cancel()
		}
	}
	reqs := make([]Request, streams)
	for i := range reqs {
		prompt := make([]int, promptLen)
		for j := range prompt {
			prompt[j] = (i*7 + j*13 + 1) % cfg.Vocab
		}
		reqs[i] = Request{ID: fmt.Sprintf("S%d", i), Prompt: prompt,
			Cfg: nn.SampleConfig{Temperature: 0.8, TopK: 40, MaxTokens: tokens, Seed: 42 + int64(i)}}
		if i == 3 || i == 7 {
			reqs[i].OnToken = cancelAtHalf
		}
	}
	sched := New(dec)
	sts := submitAll(t, sched, reqs...)
	serveUntilDone(t, sched, sts...)

	for i, st := range sts {
		res := st.Result()
		if reqs[i].OnToken != nil {
			if !errors.Is(res.Err, ErrCancelled) {
				t.Fatalf("%s error = %v, want ErrCancelled", res.ID, res.Err)
			}
			continue
		}
		if res.Err != nil {
			t.Fatalf("stream %s failed: %v", res.ID, res.Err)
		}
		tokensEqual(t, res.ID, res.Tokens, soloGenerate(t, m, reqs[i].Prompt, reqs[i].Cfg))
	}
	if activeSlots(dec) != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("cancelled slots not reclaimed: %d active, %d bytes", activeSlots(dec), dec.ArenaActiveBytes())
	}
}

// TestSchedulerCancelWhileQueued cancels a stream that never reached a slot.
func TestSchedulerCancelWhileQueued(t *testing.T) {
	m := testModel(92)
	dec := nn.NewBatchDecoder(m, 1, nil)
	defer dec.Close()
	sched := New(dec)
	first, err := sched.Submit(Request{ID: "first", Prompt: []int{1}, Cfg: nn.SampleConfig{MaxTokens: 3}})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := sched.Submit(Request{ID: "queued", Prompt: []int{2}, Cfg: nn.SampleConfig{MaxTokens: 3}})
	if err != nil {
		t.Fatal(err)
	}
	queued.Cancel()
	serveUntilDone(t, sched, first, queued)
	if first.Result().Err != nil {
		t.Fatalf("first stream failed: %v", first.Result().Err)
	}
	if err := queued.Result().Err; !errors.Is(err, ErrCancelled) {
		t.Fatalf("queued error = %v, want ErrCancelled", err)
	}
}

// TestSchedulerSubmitRejects pins admission validation: bad requests are
// rejected up front and never occupy decoder state.
func TestSchedulerSubmitRejects(t *testing.T) {
	m := testModel(93)
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)

	cases := []struct {
		name string
		req  Request
	}{
		{"empty prompt", Request{Prompt: nil, Cfg: nn.SampleConfig{MaxTokens: 1}}},
		{"bad token", Request{Prompt: []int{99}, Cfg: nn.SampleConfig{MaxTokens: 1}}},
		{"negative token", Request{Prompt: []int{-1}, Cfg: nn.SampleConfig{MaxTokens: 1}}},
		{"overflow", Request{Prompt: []int{1, 2, 3}, Cfg: nn.SampleConfig{MaxTokens: 30}}},
		{"bad cfg", Request{Prompt: []int{1}, Cfg: nn.SampleConfig{MaxTokens: 0}}},
		{"adapter for another model", Request{Prompt: []int{1}, Cfg: nn.SampleConfig{MaxTokens: 1},
			Adapter: makeTestAdapter(t, "wide", 1, nn.Config{Vocab: 31, Dim: 20, Hidden: 24})}},
	}
	for _, tc := range cases {
		_, err := sched.Submit(tc.req)
		if err == nil {
			t.Errorf("%s: Submit accepted, want error", tc.name)
		}
		if mismatch := tc.req.Adapter != nil; errors.Is(err, ErrAdapterMismatch) != mismatch {
			t.Errorf("%s: error %v, ErrAdapterMismatch wanted: %v", tc.name, err, mismatch)
		}
	}
	if activeSlots(dec) != 0 {
		t.Fatalf("rejected submissions acquired %d slots", activeSlots(dec))
	}

	sched.Close()
	if _, err := sched.Submit(Request{Prompt: []int{1}, Cfg: nn.SampleConfig{MaxTokens: 1}}); err == nil {
		t.Fatal("Submit after Close accepted, want error")
	}
}

// TestSchedulerContextCancel ends every unfinished stream with the context
// error and releases all slots.
func TestSchedulerContextCancel(t *testing.T) {
	m := testModel(94)
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var streams []*Stream
	for i := 0; i < 3; i++ {
		st, err := sched.Submit(Request{
			ID:     fmt.Sprintf("s%d", i),
			Prompt: []int{i + 1},
			Cfg:    nn.SampleConfig{MaxTokens: 20},
			// Cancel after the first sampled token so the loop is genuinely mid-flight.
			OnToken: func(*Stream, int) { cancel() },
		})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	if err := sched.Serve(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve = %v, want context.Canceled", err)
	}
	for _, st := range streams {
		select {
		case <-st.Done():
		default:
			t.Fatalf("stream %s not finished after Serve returned", st.ID())
		}
		if err := st.Result().Err; !errors.Is(err, context.Canceled) {
			t.Fatalf("stream %s error = %v, want context.Canceled", st.ID(), err)
		}
	}
	if activeSlots(dec) != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("slots leaked after context cancel: %d active, %d bytes", activeSlots(dec), dec.ArenaActiveBytes())
	}
}

// activeSlots counts dec's acquired slots: it acquires every free slot and
// releases them again.
func activeSlots(dec *nn.Decoder) int {
	var free []int
	for {
		s, err := dec.Acquire()
		if err != nil {
			break
		}
		free = append(free, s)
	}
	for _, s := range free {
		dec.Release(s)
	}
	return dec.Slots() - len(free)
}
