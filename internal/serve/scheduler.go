// Package serve implements a continuous-batching decode scheduler over the
// arena-backed nn.Decoder, plus the hardened multi-tenant HTTP serving
// front end built on top of it (see server.go).
//
// Requests are admitted FIFO into the lowest free KV slot, and streams join
// and leave between steps as prompts arrive and generations finish. Every
// StepBatch carries one row for each stream that is decoding — so a decoding
// stream samples a token from every step, whatever else the step carries —
// followed by prompt rows of the streams still prefilling, in admission
// order, up to nn.PrefillRows of them: a prompt enters the decoder as runs
// of up to 16 tokens, not one token a step, and only a run's last row
// reaches the LM head.
//
// Batching never changes results: the decoder's batched step is
// bitwise-identical to single-sequence, token-at-a-time decoding and each
// stream samples from its own seeded RNG, so a stream's output equals what a
// solo Decoder.Generate with the same prompt and config would produce, no
// matter which other streams it shared steps with or how its prompt was cut
// into runs.
//
// An adapter is a low-rank side path in the decode step (nn.Decoder.SetAdapter),
// over float32 or packed weights alike; it patches no weight. A step runs
// under one adapter: the scheduler admits only streams whose adapter is the
// one set on the decoder and sets the next one when no stream is active.
// Whether an adapter fits the model is checked once, in Submit.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// ErrCancelled is the terminal error of a stream whose Cancel was observed
// at a step boundary before generation finished.
var ErrCancelled = errors.New("serve: stream cancelled")

// ErrClosed is returned by Submit once the scheduler has been closed. It is
// a typed admission rejection, never a panic: submissions racing Close either
// enqueue normally or fail with this error.
var ErrClosed = errors.New("serve: scheduler closed")

// ErrAdapterMismatch is wrapped by Submit's rejection of a request whose
// adapter does not fit the served model: a target the model lacks, or factor
// shapes that are not the target's (HTTP 422 at the front end).
var ErrAdapterMismatch = errors.New("serve: adapter does not fit the served model")

// ErrDraining is the cancellation cause of streams force-cancelled because
// the server's drain deadline expired before they finished.
var ErrDraining = errors.New("serve: cancelled by drain deadline")

// StreamPanicError is the terminal error of a stream whose per-token
// processing (sampling or a token hook) panicked. The panic is contained to
// the poisoned stream: its slot is released and every co-batched stream
// continues untouched.
type StreamPanicError struct {
	// ID is the poisoned stream's request ID.
	ID string
	// Value is the recovered panic value.
	Value any
}

// Error implements error.
func (e *StreamPanicError) Error() string {
	return fmt.Sprintf("serve: stream %s panicked: %v", e.ID, e.Value)
}

// Request describes one generation job.
type Request struct {
	// ID tags the stream in results and telemetry.
	ID string
	// Tenant labels the stream's owner in per-tenant telemetry. Optional.
	Tenant string
	// Prompt is the non-empty token prefix to condition on.
	Prompt []int
	// Cfg controls sampling; Cfg.MaxTokens continuation tokens are produced.
	Cfg nn.SampleConfig
	// Adapter, when non-nil, is the LoRA artifact this stream must decode
	// under. Streams only co-batch with streams carrying the same adapter
	// (pointer identity); the scheduler sets the next adapter on the decoder
	// when no stream is active. Nil decodes on the base model.
	Adapter *nn.Adapter
	// OnToken, when set, is invoked from the scheduler goroutine after each
	// sampled continuation token of this stream (before it is fed back).
	// A panic inside the hook poisons only this stream (StreamPanicError).
	OnToken func(st *Stream, token int)
}

// Result is a finished stream's outcome.
type Result struct {
	ID string
	// Tokens is prompt followed by the sampled continuation — the same
	// slice Decoder.Generate would return. Nil when Err is set.
	Tokens []int
	Err    error
}

// Stream is a submitted request's handle. Cancel may be called from any
// goroutine; the scheduler observes it at the next step boundary, releases
// the KV slot, and finishes the stream with the cancellation cause.
type Stream struct {
	req   Request
	rng   *tensor.RNG
	sched *Scheduler

	slot      int   // -1 while queued
	fed       int   // tokens consumed; the stream is prefilling while fed < len(Prompt)
	sampled   []int // once decoding, the last one is the token to feed next
	submitted time.Time

	// Latency decomposition, written only by the scheduler goroutine and
	// published by the close of done (read via Timing after Done). Plain
	// fields — not spans — so per-token attribution costs zero allocations;
	// the server reconstructs queue/decode spans from them at request end.
	admitted   time.Time // slot acquired; zero if never admitted
	firstToken time.Time // first sampled continuation token; zero if none
	lastToken  time.Time // latest sampled continuation token
	steps      int64     // batched steps this stream had rows in: one per prompt run, one per fed token after
	decodeNS   int64     // total duration of those steps (includes co-batch work)
	maxGapNS   int64     // widest gap between consecutive sampled tokens

	cancelled atomic.Bool
	cause     atomic.Pointer[error] // first CancelCause wins
	done      chan struct{}
	result    Result
}

// ID returns the request ID.
func (s *Stream) ID() string { return s.req.ID }

// Cancel asks the scheduler to abandon the stream at the next step boundary
// with ErrCancelled. It is idempotent, safe from any goroutine, and a
// harmless no-op on a stream that already finished.
func (s *Stream) Cancel() { s.CancelCause(ErrCancelled) }

// CancelCause is Cancel with an explicit cause (deadline, stall, drain, ...)
// that becomes the stream's terminal error. The first cause wins; repeated
// calls and calls after completion are no-ops.
func (s *Stream) CancelCause(err error) {
	if err == nil {
		err = ErrCancelled
	}
	s.cause.CompareAndSwap(nil, &err)
	s.cancelled.Store(true)
	if s.sched != nil {
		s.sched.wakeUp()
	}
}

// cancelCause returns the recorded cancellation cause (ErrCancelled when
// Cancel never supplied one).
func (s *Stream) cancelCause() error {
	if p := s.cause.Load(); p != nil {
		return *p
	}
	return ErrCancelled
}

// Done is closed when the stream has finished (normally, by cancellation, or
// by scheduler shutdown).
func (s *Stream) Done() <-chan struct{} { return s.done }

// Result returns the stream's outcome; valid only after Done is closed.
func (s *Stream) Result() Result { return s.result }

// Sampled returns how many continuation tokens have been produced so far.
// It is safe to call from an OnSample/OnToken hook.
func (s *Stream) Sampled() int { return len(s.sampled) }

// StreamTiming is a stream's latency decomposition as attributed by the
// scheduler step loop: when it was submitted and admitted, when its first
// and latest continuation tokens were sampled, how many batched steps it
// rode in and their summed duration, and the widest inter-token gap. Steps
// counts steps, not tokens: a prompt is fed nn.PrefillRows tokens a step (or
// fewer, when it shares the budget), so Steps is below prompt + output.
type StreamTiming struct {
	Submitted  time.Time
	Admitted   time.Time // zero if the stream never reached a slot
	FirstToken time.Time // zero if no continuation token was sampled
	LastToken  time.Time
	Steps      int64
	DecodeNS   int64 // summed step durations (shared with co-batched streams)
	MaxGapNS   int64
}

// Timing returns the stream's latency decomposition. Valid only after Done
// is closed (the channel close publishes the scheduler's writes).
func (s *Stream) Timing() StreamTiming {
	return StreamTiming{
		Submitted:  s.submitted,
		Admitted:   s.admitted,
		FirstToken: s.firstToken,
		LastToken:  s.lastToken,
		Steps:      s.steps,
		DecodeNS:   s.decodeNS,
		MaxGapNS:   s.maxGapNS,
	}
}

// Scheduler drives one nn.Decoder with continuous batching. Submit and
// Stream.Cancel are safe from any goroutine; Run/Serve must be the only
// goroutine touching the decoder.
type Scheduler struct {
	dec  *nn.Decoder
	rate *obsv.Rate

	// OnSample, when set, is invoked from the Run goroutine after every
	// sampled token, before the token is fed back. It is the seam fault
	// injection uses to cancel streams mid-generation. A panic inside the
	// hook poisons only the stream it fired for.
	OnSample func(st *Stream, token int)

	mu     sync.Mutex
	queue  []*Stream
	closed bool
	wake   chan struct{} // buffered(1): Submit/Cancel nudge a blocked Serve
}

// New returns a scheduler over dec. The decoder's slot capacity bounds
// concurrent streams; excess submissions wait in the FIFO queue.
func New(dec *nn.Decoder) *Scheduler {
	return &Scheduler{
		dec:  dec,
		rate: obsv.NewRate(10 * time.Second),
		wake: make(chan struct{}, 1),
	}
}

// wakeUp nudges a Serve goroutine blocked waiting for work.
func (s *Scheduler) wakeUp() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Submit validates and enqueues a request, returning its stream handle.
// Validation failures are admission rejections: the request never occupies
// a slot and never reaches the decoder. After Close, Submit fails with
// ErrClosed — submissions racing Close either enqueue or get ErrClosed,
// never a panic and never a leaked slot.
func (s *Scheduler) Submit(req Request) (*Stream, error) {
	cfg := s.dec.Config()
	if err := req.Cfg.Validate(); err != nil {
		return nil, err
	}
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("serve: empty prompt")
	}
	for i, tok := range req.Prompt {
		if tok < 0 || tok >= cfg.Vocab {
			return nil, fmt.Errorf("serve: prompt token %d at position %d out of range [0,%d)", tok, i, cfg.Vocab)
		}
	}
	if len(req.Prompt)+req.Cfg.MaxTokens > cfg.MaxSeq {
		return nil, fmt.Errorf("serve: prompt %d + %d tokens exceeds MaxSeq %d",
			len(req.Prompt), req.Cfg.MaxTokens, cfg.MaxSeq)
	}
	if err := s.dec.CheckAdapter(req.Adapter); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdapterMismatch, err)
	}
	st := &Stream{
		req:       req,
		rng:       tensor.NewRNG(req.Cfg.Seed),
		sched:     s,
		slot:      -1,
		sampled:   make([]int, 0, req.Cfg.MaxTokens),
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.queue = append(s.queue, st)
	depth := len(s.queue)
	s.mu.Unlock()
	obsv.SetGauge("decode.queue_depth", float64(depth))
	s.wakeUp()
	return st, nil
}

// QueueDepth returns the number of streams waiting for a slot.
func (s *Scheduler) QueueDepth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// Run drains every submitted request: it admits queued streams into free
// slots, advances every active stream each batched step (a decoding stream
// by one token, prefilling streams by runs of prompt tokens), and returns
// once the queue and the batch are both empty. Streams submitted
// while Run is active join the current batch at the next step boundary.
// On context cancellation every unfinished stream ends with ctx.Err().
func (s *Scheduler) Run(ctx context.Context) error { return s.run(ctx, false) }

// Serve is Run in keep-alive mode: instead of returning when idle it blocks
// waiting for new submissions, so a server can keep one long-lived decode
// goroutine. It returns only when ctx is cancelled, finishing every
// unfinished stream with ctx.Err().
func (s *Scheduler) Serve(ctx context.Context) error { return s.run(ctx, true) }

// stepSpanSample is the batched-step span sampling stride: one decode.step
// span is recorded per this many StepBatch calls.
const stepSpanSample = 64

func (s *Scheduler) run(ctx context.Context, keepAlive bool) error {
	span := obsv.StartSpan("decode.run")
	defer span.End()
	var stepCount uint64

	// active is indexed by slot; nil entries are free slots.
	active := make([]*Stream, s.dec.Slots())
	nActive := 0
	curAdapter := s.dec.Adapter()
	// One step's rows, and per run (streams[i] owns rows[i] of the result)
	// its stream and length. prefill holds admitted streams in admission
	// order until their prompt is fed.
	maxRows := s.dec.Slots() + nn.PrefillRows
	tokens := make([]int, 0, maxRows)
	slots := make([]int, 0, maxRows)
	streams := make([]*Stream, 0, s.dec.Slots())
	runLens := make([]int, 0, s.dec.Slots())
	prefill := make([]*Stream, 0, s.dec.Slots())

	finish := func(st *Stream, res Result) {
		if st.slot >= 0 {
			s.dec.Release(st.slot)
			active[st.slot] = nil
			st.slot = -1
			nActive--
		}
		st.result = res
		close(st.done)
		obsv.Add("decode.streams_finished", 1)
	}

	// admit retires cancelled queued streams and moves queued streams whose
	// adapter is the decoder's into free slots. When that leaves no stream
	// active and a queue, the stream leading it needs another adapter: set
	// it and go round again. It returns the remaining queue depth.
	admit := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		for {
			kept := s.queue[:0]
			for _, st := range s.queue {
				switch {
				case st.cancelled.Load():
					finish(st, Result{ID: st.req.ID, Err: st.cancelCause()})
				case nActive < len(active) && st.req.Adapter == curAdapter:
					slot, err := s.dec.Acquire()
					if err != nil {
						finish(st, Result{ID: st.req.ID, Err: err})
						continue
					}
					st.slot = slot
					active[slot] = st
					prefill = append(prefill, st)
					nActive++
					obsv.Add("decode.streams_admitted", 1)
					st.admitted = time.Now()
					wait := float64(st.admitted.Sub(st.submitted)) / float64(time.Millisecond)
					if st.req.Tenant != "" {
						obsv.Observe("serve.queue_wait_ms", wait, obsv.L("tenant", st.req.Tenant))
					} else {
						obsv.Observe("serve.queue_wait_ms", wait)
					}
				default:
					kept = append(kept, st)
				}
			}
			clear(s.queue[len(kept):])
			s.queue = kept
			if nActive > 0 || len(s.queue) == 0 {
				return len(s.queue)
			}
			curAdapter = s.queue[0].req.Adapter
			if err := s.dec.SetAdapter(curAdapter); err != nil {
				// Submit checked the fit, which is all SetAdapter refuses.
				panic(fmt.Sprintf("serve: adapter passed Submit but not SetAdapter: %v", err))
			}
			obsv.Add("serve.adapter_swaps", 1)
		}
	}

	// step runs one batched decoder step with panic containment: a panic
	// inside StepBatch fails only this batch's streams (the arena stays
	// consistent — slot lengths advance, by whole runs, after the last
	// write) and decoding continues for future submissions.
	step := func(tokens, slots []int) (rows [][]float32, err error) {
		defer func() {
			if r := recover(); r != nil {
				rows, err = nil, fmt.Errorf("serve: decoder step panicked: %v", r)
			}
		}()
		return s.dec.StepBatch(tokens, slots)
	}

	// stepEnd/stepNS describe the batched step being applied by advance;
	// sharing the loop's timestamps keeps per-stream attribution down to
	// plain field writes (no extra clock reads, no allocation per token).
	var stepEnd time.Time
	var stepNS int64

	// advance applies one sampled step to one stream with per-stream panic
	// containment: a poisoned request (hook or sampler panic) finishes with
	// StreamPanicError while co-batched streams continue untouched.
	advance := func(st *Stream, fed int, row []float32) {
		defer func() {
			if r := recover(); r != nil {
				obsv.Add("serve.stream_panics", 1)
				finish(st, Result{ID: st.req.ID, Err: &StreamPanicError{ID: st.req.ID, Value: r}})
			}
		}()
		st.steps++
		st.decodeNS += stepNS
		st.fed += fed
		if st.fed < len(st.req.Prompt) {
			return // more prompt to feed: the run's logits are not sampled
		}
		tok := nn.SampleLogits(row, st.req.Cfg, st.rng)
		if st.firstToken.IsZero() {
			st.firstToken = stepEnd
		} else if gap := int64(stepEnd.Sub(st.lastToken)); gap > st.maxGapNS {
			st.maxGapNS = gap
		}
		st.lastToken = stepEnd
		st.sampled = append(st.sampled, tok)
		if s.OnSample != nil {
			s.OnSample(st, tok)
		}
		if st.req.OnToken != nil {
			st.req.OnToken(st, tok)
		}
		if len(st.sampled) == st.req.Cfg.MaxTokens {
			out := make([]int, 0, len(st.req.Prompt)+len(st.sampled))
			out = append(out, st.req.Prompt...)
			out = append(out, st.sampled...)
			finish(st, Result{ID: st.req.ID, Tokens: out})
			return
		}
	}

	// abort ends the run: every queued and active stream finishes with err.
	abort := func(err error) error {
		s.mu.Lock()
		queued := s.queue
		s.queue = nil
		s.mu.Unlock()
		for _, st := range queued {
			finish(st, Result{ID: st.req.ID, Err: err})
		}
		for _, st := range active {
			if st != nil {
				finish(st, Result{ID: st.req.ID, Err: err})
			}
		}
		return err
	}

	for {
		if err := ctx.Err(); err != nil {
			return abort(err)
		}

		queueDepth := admit()
		obsv.SetGauge("decode.queue_depth", float64(queueDepth))
		obsv.SetGauge("decode.active_slots", float64(nActive))
		obsv.SetGauge("decode.arena_active_bytes", float64(s.dec.ArenaActiveBytes()))

		if nActive == 0 {
			if !keepAlive {
				return nil
			}
			select {
			case <-ctx.Done():
			case <-s.wake:
			}
			continue
		}

		// Gather this step's rows (deterministic composition) and retire
		// cancellations at the boundary: first one row for every decoding
		// stream, in slot order, so that none ever waits out a step; then
		// runs of prompt tokens in admission order while the budget lasts.
		tokens, slots, streams, runLens = tokens[:0], slots[:0], streams[:0], runLens[:0]
		addRun := func(st *Stream, run []int) {
			tokens = append(tokens, run...)
			for range run {
				slots = append(slots, st.slot)
			}
			streams = append(streams, st)
			runLens = append(runLens, len(run))
		}
		for _, st := range active {
			if st == nil {
				continue
			}
			if st.cancelled.Load() {
				finish(st, Result{ID: st.req.ID, Err: st.cancelCause()})
			} else if st.fed >= len(st.req.Prompt) {
				addRun(st, st.sampled[len(st.sampled)-1:])
			}
		}
		budget := nn.PrefillRows
		waiting := prefill[:0]
		for _, st := range prefill {
			if st.slot < 0 {
				continue // cancelled above
			}
			rest := st.req.Prompt[st.fed:]
			n := min(len(rest), budget)
			if n > 0 {
				addRun(st, rest[:n])
				budget -= n
			}
			if n < len(rest) {
				waiting = append(waiting, st)
			}
		}
		clear(prefill[len(waiting):])
		prefill = waiting
		if len(tokens) == 0 {
			continue
		}

		stepStart := time.Now()
		rows, err := step(tokens, slots)
		if err != nil {
			// Submit validates everything StepBatch checks, so this is a
			// programming error or a contained decoder panic; fail this
			// step's streams rather than guess, then keep serving. Run
			// gives up instead, and a stream whose prompt was waiting for
			// row budget was in no step: it must not be left unfinished.
			for _, st := range streams {
				finish(st, Result{ID: st.req.ID, Err: err})
			}
			if keepAlive {
				continue
			}
			return abort(err)
		}
		stepEnd = time.Now()
		stepNS = int64(stepEnd.Sub(stepStart))
		obsv.Observe("decode.step_ms", float64(stepNS)/float64(time.Millisecond))
		// Sample every stepSpanSample-th batch as a decode.step span so
		// traces show batch cadence without one span record per step (the
		// emitted-event volume would swamp a trace; the registry cost is
		// amortised to nothing).
		if stepCount%stepSpanSample == 0 {
			obsv.RecordSpan("decode.step", stepStart, stepEnd.Sub(stepStart))
		}
		stepCount++
		obsv.Add("decode.tokens", int64(len(tokens)))
		obsv.Add("decode.prefill_rows", int64(nn.PrefillRows-budget))
		obsv.Observe("decode.step_rows", float64(len(tokens)))
		s.rate.Add(int64(len(tokens)))
		obsv.SetGauge("decode.tokens_per_sec", s.rate.PerSec())

		// Advance each stream exactly as Decoder.Generate would: prompt
		// tokens are fed without sampling, the continuation samples from
		// the logits after the prompt's last token and after every token
		// fed since, and the final sampled token is not fed back.
		for i, st := range streams {
			advance(st, runLens[i], rows[i])
		}
	}
}

// Close marks the scheduler closed: subsequent Submit calls fail with
// ErrClosed. It does not interrupt a running Run/Serve; cancel its context
// for that (which also finishes any still-queued streams).
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wakeUp()
}
