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
	streams := make([]*Stream, len(reqs))
	for i, req := range reqs {
		st, err := sched.Submit(req)
		if err != nil {
			t.Fatalf("submit %s: %v", req.ID, err)
		}
		streams[i] = st
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, st := range streams {
		res := st.Result()
		if res.Err != nil {
			t.Fatalf("stream %s failed: %v", res.ID, res.Err)
		}
		want := soloGenerate(t, m, reqs[i].Prompt, reqs[i].Cfg)
		tokensEqual(t, res.ID, res.Tokens, want)
		select {
		case <-st.Done():
		default:
			t.Fatalf("stream %s not done after Run", res.ID)
		}
	}
	if dec.ActiveSlots() != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("slots/bytes leaked: %d active, %d bytes", dec.ActiveSlots(), dec.ArenaActiveBytes())
	}
}

// TestSchedulerCancellationReleasesSlot cancels one stream mid-generation
// from the OnSample hook and requires: the victim ends with ErrCancelled,
// its slot is reclaimed (arena drains to zero after the run), and the
// surviving streams' tokens are untouched by the churn.
func TestSchedulerCancellationReleasesSlot(t *testing.T) {
	m := testModel(91)
	dec := nn.NewBatchDecoder(m, 3, tensor.NewPool())
	defer dec.Close()

	reqs := []Request{
		{ID: "victim", Prompt: []int{1, 2}, Cfg: nn.SampleConfig{MaxTokens: 10}},
		{ID: "survivor-1", Prompt: []int{3, 4, 5}, Cfg: nn.SampleConfig{Temperature: 0.9, MaxTokens: 7, Seed: 11}},
		{ID: "survivor-2", Prompt: []int{6}, Cfg: nn.SampleConfig{MaxTokens: 6}},
		{ID: "queued", Prompt: []int{7, 8}, Cfg: nn.SampleConfig{MaxTokens: 4}},
	}
	sched := New(dec)
	sched.OnSample = func(st *Stream, tok int) {
		if st.ID() == "victim" && st.Sampled() == 3 {
			st.Cancel()
		}
	}
	streams := make([]*Stream, len(reqs))
	for i, req := range reqs {
		st, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if err := streams[0].Result().Err; !errors.Is(err, ErrCancelled) {
		t.Fatalf("victim error = %v, want ErrCancelled", err)
	}
	for i, st := range streams[1:] {
		res := st.Result()
		if res.Err != nil {
			t.Fatalf("stream %s failed: %v", res.ID, res.Err)
		}
		tokensEqual(t, res.ID, res.Tokens, soloGenerate(t, m, reqs[i+1].Prompt, reqs[i+1].Cfg))
	}
	if dec.ActiveSlots() != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("cancelled slot not reclaimed: %d active, %d bytes", dec.ActiveSlots(), dec.ArenaActiveBytes())
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
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
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
	if dec.ActiveSlots() != 0 {
		t.Fatalf("rejected submissions acquired %d slots", dec.ActiveSlots())
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
	var streams []*Stream
	for i := 0; i < 3; i++ {
		st, err := sched.Submit(Request{
			ID:     fmt.Sprintf("s%d", i),
			Prompt: []int{i + 1},
			Cfg:    nn.SampleConfig{MaxTokens: 20},
		})
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	// Cancel after the first sampled token so the run is genuinely mid-flight.
	sched.OnSample = func(st *Stream, tok int) { cancel() }
	if err := sched.Run(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	for _, st := range streams {
		select {
		case <-st.Done():
		default:
			t.Fatalf("stream %s not finished after cancelled Run", st.ID())
		}
		if err := st.Result().Err; !errors.Is(err, context.Canceled) {
			t.Fatalf("stream %s error = %v, want context.Canceled", st.ID(), err)
		}
	}
	if dec.ActiveSlots() != 0 || dec.ArenaActiveBytes() != 0 {
		t.Fatalf("slots leaked after context cancel: %d active, %d bytes", dec.ActiveSlots(), dec.ArenaActiveBytes())
	}
}
