package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func greedyReq(id string, prompt []int, maxTokens int) Request {
	return Request{ID: id, Prompt: prompt, Cfg: nn.SampleConfig{MaxTokens: maxTokens}}
}

// TestSubmitCloseRace hammers Submit from many goroutines while Close races
// them: every Submit must either enqueue successfully or fail with the
// typed ErrClosed — never panic — and every accepted stream must finish
// once the serve loop is stopped, leaving the arena drained.
func TestSubmitCloseRace(t *testing.T) {
	m := testModel(11)
	for round := 0; round < 8; round++ {
		dec := nn.NewBatchDecoder(m, 2, nil)
		sched := New(dec)
		ctx, cancel := context.WithCancel(context.Background())
		serveDone := make(chan error, 1)
		go func() { serveDone <- sched.Serve(ctx) }()

		const submitters = 8
		var wg sync.WaitGroup
		var accepted sync.Map
		var rejected atomic.Int64
		start := make(chan struct{})
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 20; i++ {
					st, err := sched.Submit(greedyReq(fmt.Sprintf("g%d-%d", g, i), []int{1, 2}, 2))
					switch {
					case err == nil:
						accepted.Store(st, true)
					case errors.Is(err, ErrClosed):
						rejected.Add(1)
					default:
						t.Errorf("submit: unexpected error %v", err)
						return
					}
				}
			}(g)
		}
		close(start)
		sched.Close() // races the submitters
		wg.Wait()
		cancel() // finish anything still queued/active
		<-serveDone

		accepted.Range(func(k, _ any) bool {
			st := k.(*Stream)
			select {
			case <-st.Done():
			case <-time.After(5 * time.Second):
				t.Fatal("accepted stream never finished after Serve stopped")
			}
			return true
		})
		if dec.ArenaActiveBytes() != 0 {
			t.Fatalf("round %d: arena holds %d bytes after shutdown", round, dec.ArenaActiveBytes())
		}
		dec.Close()
	}
}

// TestSubmitAfterCloseTyped pins the satellite contract: Submit after Close
// returns ErrClosed specifically, not just any error.
func TestSubmitAfterCloseTyped(t *testing.T) {
	dec := nn.NewBatchDecoder(testModel(12), 1, nil)
	defer dec.Close()
	sched := New(dec)
	sched.Close()
	_, err := sched.Submit(greedyReq("late", []int{1}, 1))
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close = %v, want ErrClosed", err)
	}
}

// TestCancelIdempotent pins Stream.Cancel semantics: repeated cancels are
// no-ops, cancel after completion is harmless, and the first CancelCause
// wins.
func TestCancelIdempotent(t *testing.T) {
	m := testModel(13)
	dec := nn.NewBatchDecoder(m, 1, nil)
	defer dec.Close()
	sched := New(dec)

	st, err := sched.Submit(greedyReq("done-then-cancel", []int{1, 2}, 3))
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	res := st.Result()
	if res.Err != nil {
		t.Fatalf("stream failed: %v", res.Err)
	}
	// Cancel after completion: harmless no-ops, result unchanged.
	for i := 0; i < 3; i++ {
		st.Cancel()
		st.CancelCause(errors.New("too late"))
	}
	after := st.Result()
	if after.Err != nil || len(after.Tokens) != len(res.Tokens) {
		t.Fatalf("cancel after completion changed result: %+v vs %+v", after, res)
	}

	// First cause wins across repeated cancels before the run.
	st2, err := sched.Submit(greedyReq("first-cause-wins", []int{1, 2}, 3))
	if err != nil {
		t.Fatal(err)
	}
	first := errors.New("first cause")
	st2.CancelCause(first)
	st2.Cancel()
	st2.CancelCause(errors.New("second cause"))
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := st2.Result().Err; !errors.Is(got, first) {
		t.Fatalf("cancelled stream error = %v, want first cause", got)
	}
	if dec.ArenaActiveBytes() != 0 {
		t.Fatalf("arena holds %d bytes after cancelled stream", dec.ArenaActiveBytes())
	}
}

// TestCancelRace hammers Cancel/CancelCause from many goroutines against a
// running scheduler — no panics, every stream ends with one of the supplied
// causes, slots reclaimed.
func TestCancelRace(t *testing.T) {
	m := testModel(14)
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)

	var streams []*Stream
	for i := 0; i < 6; i++ {
		st, err := sched.Submit(greedyReq(fmt.Sprintf("c%d", i), []int{1, 2, 3}, 8))
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, st)
	}
	var wg sync.WaitGroup
	for _, st := range streams {
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(st *Stream, g int) {
				defer wg.Done()
				st.CancelCause(fmt.Errorf("goroutine %d: %w", g, ErrCancelled))
			}(st, g)
		}
	}
	wg.Wait() // all cancels land before the run: every stream must be retired
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, st := range streams {
		if err := st.Result().Err; !errors.Is(err, ErrCancelled) {
			t.Fatalf("stream %s error = %v, want an ErrCancelled cause", st.ID(), err)
		}
	}
	if dec.ArenaActiveBytes() != 0 {
		t.Fatalf("arena holds %d bytes after cancellations", dec.ArenaActiveBytes())
	}
}

// TestStreamPanicContainment poisons one stream's token hook and requires:
// the poisoned stream fails with a typed StreamPanicError, its slot is
// released, and the co-batched stream finishes with tokens identical to a
// solo decode — the blast radius is exactly one stream.
func TestStreamPanicContainment(t *testing.T) {
	m := testModel(15)
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)

	poison := Request{
		ID: "poisoned", Prompt: []int{3, 4}, Cfg: nn.SampleConfig{MaxTokens: 6},
		OnToken: func(st *Stream, tok int) {
			if st.Sampled() == 3 {
				panic("injected hook panic")
			}
		},
	}
	healthy := greedyReq("healthy", []int{5, 6, 7}, 6)

	stP, err := sched.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	stH, err := sched.Submit(healthy)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	var pe *StreamPanicError
	if err := stP.Result().Err; !errors.As(err, &pe) {
		t.Fatalf("poisoned stream error = %v, want StreamPanicError", err)
	} else if pe.ID != "poisoned" {
		t.Fatalf("panic error names stream %q, want poisoned", pe.ID)
	}
	res := stH.Result()
	if res.Err != nil {
		t.Fatalf("healthy co-batched stream failed: %v", res.Err)
	}
	tokensEqual(t, "healthy", res.Tokens, soloGenerate(t, m, healthy.Prompt, healthy.Cfg))
	if dec.ArenaActiveBytes() != 0 {
		t.Fatalf("arena holds %d bytes after contained panic", dec.ArenaActiveBytes())
	}
}

// TestStreamPanicInSchedulerStep makes StepBatch itself panic — a mis-shaped
// weight in layer 1, so layer 0 has already cached K/V for a decode row and a
// whole 16-row prompt run — and requires the scheduler to contain it: the
// step's streams fail with a typed error and the decoder is untouched, so the
// arena drains and later output equals a token-at-a-time solo decode. Serve
// keeps serving; Run gives up, and must then also finish the stream whose
// prompt was still waiting for row budget, which was in no step.
func TestStreamPanicInSchedulerStep(t *testing.T) {
	for _, keepAlive := range []bool{true, false} {
		m := testModel(16)
		dec := nn.NewBatchDecoder(m, 3, nil)
		sched := New(dec)
		down := m.Blocks[1].MLP.Down.W.Data
		shape := down.Shape

		// The hook runs on the scheduler goroutine between two steps. The
		// next step carries decoding's row and run16's 16 rows, which use up
		// the row budget, so waiting's prompt stays out of it.
		var stRun, stWaiting *Stream
		decoding := greedyReq("decoding", []int{1}, 8)
		decoding.OnToken = func(st *Stream, _ int) {
			if st.Sampled() != 2 {
				return
			}
			down.Shape = []int{shape[0] + 1, shape[1]}
			var err error
			if stRun, err = sched.Submit(greedyReq("run16", make([]int, nn.PrefillRows), 3)); err != nil {
				t.Error(err)
			}
			if keepAlive {
				return
			}
			if stWaiting, err = sched.Submit(greedyReq("waiting", []int{9, 8, 7}, 4)); err != nil {
				t.Error(err)
			}
		}
		stDecoding, err := sched.Submit(decoding)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		runDone := make(chan error, 1)
		go func() { runDone <- sched.run(ctx, keepAlive) }()
		<-stDecoding.Done()
		<-stRun.Done()
		for _, st := range []*Stream{stDecoding, stRun} {
			if err := st.Result().Err; err == nil || !strings.Contains(err.Error(), "decoder step panicked") {
				t.Fatalf("stream %s error = %v, want the contained step panic", st.ID(), err)
			}
		}
		if keepAlive {
			// Serve is idle now, and next reads the weight after this Submit.
			down.Shape = shape
			after, err := sched.Submit(greedyReq("after", []int{4, 5}, 5))
			if err != nil {
				t.Fatal(err)
			}
			<-after.Done()
			if after.Result().Err != nil {
				t.Fatalf("stream after the contained panic failed: %v", after.Result().Err)
			}
			tokensEqual(t, "after", after.Result().Tokens, soloSteps(t, m, nil, after.req))
			cancel()
			<-runDone
		} else {
			if err := <-runDone; err == nil || err != stWaiting.Result().Err {
				t.Fatalf("Run = %v, waiting stream = %v: want the step panic for both", err, stWaiting.Result().Err)
			}
			cancel()
		}
		if dec.ActiveSlots() != 0 || dec.ArenaActiveBytes() != 0 {
			t.Fatalf("after a contained step panic: %d slots / %d bytes active", dec.ActiveSlots(), dec.ArenaActiveBytes())
		}
		dec.Close()
	}
}

// TestServeKeepAlive pins the keep-alive contract: Serve idles across
// bursts instead of returning, picks up late submissions, and exits only on
// context cancellation.
func TestServeKeepAlive(t *testing.T) {
	m := testModel(16)
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- sched.Serve(ctx) }()

	for burst := 0; burst < 3; burst++ {
		req := greedyReq(fmt.Sprintf("burst%d", burst), []int{1, 2, 3}, 4)
		st, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-st.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("burst %d stream never finished", burst)
		}
		res := st.Result()
		if res.Err != nil {
			t.Fatalf("burst %d failed: %v", burst, res.Err)
		}
		tokensEqual(t, req.ID, res.Tokens, soloGenerate(t, m, req.Prompt, req.Cfg))
		// Let the loop go idle between bursts.
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-serveDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve returned %v, want context.Canceled", err)
	}
	if dec.ArenaActiveBytes() != 0 {
		t.Fatalf("arena holds %d bytes after Serve exit", dec.ArenaActiveBytes())
	}
}

// TestSchedulerAdapterGrouping mixes base-model streams with streams on two
// different adapters. Streams must never co-batch across adapters (a step
// runs under one), the scheduler must swap when no stream is active,
// and every stream's tokens must equal the solo decode under its own
// adapter.
func TestSchedulerAdapterGrouping(t *testing.T) {
	m := testModel(17)
	adpA := makeTestAdapter(t, "tenant-a", 100, m.Cfg)
	adpB := makeTestAdapter(t, "tenant-b", 200, m.Cfg)

	type job struct {
		req     Request
		adapter *nn.Adapter
	}
	jobs := []job{
		{greedyReq("base-1", []int{1, 2}, 5), nil},
		{greedyReq("a-1", []int{3, 4}, 4), adpA},
		{greedyReq("b-1", []int{5, 6}, 4), adpB},
		{greedyReq("a-2", []int{7, 8, 9}, 3), adpA},
		{greedyReq("base-2", []int{10}, 6), nil},
		{greedyReq("b-2", []int{11, 12}, 5), adpB},
	}

	// Solo references on a private decoder over the same model.
	want := make([][]int, len(jobs))
	{
		solo := nn.NewDecoder(m)
		for i, j := range jobs {
			if err := solo.SetAdapter(j.adapter); err != nil {
				t.Fatal(err)
			}
			out, err := solo.Generate(j.req.Prompt, j.req.Cfg)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = out
		}
		solo.Close()
	}

	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)
	streams := make([]*Stream, len(jobs))
	for i, j := range jobs {
		req := j.req
		req.Adapter = j.adapter
		st, err := sched.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	if err := sched.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for i, st := range streams {
		res := st.Result()
		if res.Err != nil {
			t.Fatalf("stream %s failed: %v", st.ID(), res.Err)
		}
		tokensEqual(t, st.ID(), res.Tokens, want[i])
	}
	if dec.ArenaActiveBytes() != 0 {
		t.Fatalf("arena holds %d bytes after adapter-grouped run", dec.ArenaActiveBytes())
	}
}

// makeTestAdapter builds a deterministic low-rank adapter touching an
// attention projection, an MLP linear, and the output head.
func makeTestAdapter(t testing.TB, name string, seed int64, cfg nn.Config) *nn.Adapter {
	t.Helper()
	g := tensor.NewRNG(seed)
	pairs := []nn.AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, cfg.Dim, 2), B: g.Normal(0, 0.1, 2, cfg.Dim)},
		{Target: "block1.down", A: g.Normal(0, 0.1, cfg.Hidden, 2), B: g.Normal(0, 0.1, 2, cfg.Dim)},
		{Target: "lmhead", A: g.Normal(0, 0.1, cfg.Dim, 2), B: g.Normal(0, 0.1, 2, cfg.Vocab)},
	}
	a, err := nn.NewAdapter(name, 4, pairs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}
