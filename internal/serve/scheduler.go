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
// An adapter is a low-rank side path in the decode step, over float32 or
// packed weights alike; it patches no weight. It is bound per slot
// (nn.Decoder.SetAdapterAt) when a stream is admitted, so streams under
// different adapters, and on the base model, share every step. Whether an
// adapter fits the model is checked in Submit.
package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// ErrDraining is the cause the server's Drain cancels Serve with once its
// grace period has passed: every stream still unfinished, and not
// cancelled before, ends with it.
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
	// Adapter, when non-nil, is the LoRA artifact this stream decodes
	// under, bound to the stream's slot; it co-batches with streams under
	// any other adapter. Nil decodes on the base model.
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

	slot    int   // -1 while queued
	fed     int   // tokens consumed; the stream is prefilling while fed < len(Prompt)
	sampled []int // once decoding, the last one is the token to feed next

	// Written only by the scheduler goroutine (Submitted by Submit) and
	// published by the close of done. Plain fields, not spans, so per-token
	// attribution costs zero allocations; the server reconstructs queue and
	// decode spans from them at request end.
	timing StreamTiming

	cause  atomic.Pointer[error] // first CancelCause wins; nil while uncancelled
	done   chan struct{}
	result Result
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
	if s.sched != nil {
		s.sched.wakeUp()
	}
}

// cancelled returns the stream's cancellation cause, nil if it was never
// cancelled.
func (s *Stream) cancelled() error {
	if p := s.cause.Load(); p != nil {
		return *p
	}
	return nil
}

// Done is closed when the stream has finished (normally, by cancellation, or
// by scheduler shutdown).
func (s *Stream) Done() <-chan struct{} { return s.done }

// Result returns the stream's outcome; valid only after Done is closed.
func (s *Stream) Result() Result { return s.result }

// Sampled returns how many continuation tokens have been produced so far.
// It is safe to call from an OnToken hook.
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
func (s *Stream) Timing() StreamTiming { return s.timing }

// Scheduler drives one nn.Decoder with continuous batching. Submit and
// Stream.Cancel are safe from any goroutine; Serve must be the only
// goroutine touching the decoder.
type Scheduler struct {
	dec *nn.Decoder

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

// Check applies Submit's rules to req, all but the adapter fit: valid
// sampling, a non-empty prompt of in-vocabulary tokens, and prompt plus
// continuation within MaxSeq. A front end calls it before it reserves
// anything for the request. Its errors are errInvalid rejects.
func (s *Scheduler) Check(req Request) error {
	cfg := s.dec.Config()
	if err := req.Cfg.Validate(); err != nil {
		return reject(errInvalid, err)
	}
	if len(req.Prompt) == 0 {
		return reject(errInvalid, errors.New("serve: empty prompt"))
	}
	for i, tok := range req.Prompt {
		if tok < 0 || tok >= cfg.Vocab {
			return reject(errInvalid, fmt.Errorf("serve: prompt token %d at position %d out of range [0,%d)", tok, i, cfg.Vocab))
		}
	}
	if req.Cfg.MaxTokens > cfg.MaxSeq-len(req.Prompt) {
		return reject(errInvalid, fmt.Errorf("serve: prompt %d + %d tokens exceeds MaxSeq %d",
			len(req.Prompt), req.Cfg.MaxTokens, cfg.MaxSeq))
	}
	return nil
}

// Submit checks (Check, then the adapter fit) and enqueues a request,
// returning its stream handle. A failed check is an admission rejection:
// the request never occupies a slot and never reaches the decoder. After
// Close, Submit fails with ErrClosed — submissions racing Close either
// enqueue or get ErrClosed, never a panic and never a leaked slot.
func (s *Scheduler) Submit(req Request) (*Stream, error) {
	if err := s.Check(req); err != nil {
		return nil, err
	}
	return s.submit(req)
}

// submit is Submit for a request that has passed Check: the adapter fit,
// then the enqueue.
func (s *Scheduler) submit(req Request) (*Stream, error) {
	if err := s.dec.CheckAdapter(req.Adapter); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrAdapterMismatch, err)
	}
	st := &Stream{
		req:     req,
		rng:     tensor.NewRNG(req.Cfg.Seed),
		sched:   s,
		slot:    -1,
		sampled: make([]int, 0, req.Cfg.MaxTokens),
		timing:  StreamTiming{Submitted: time.Now()},
		done:    make(chan struct{}),
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

// stepSpanSample is the batched-step span sampling stride: one decode.step
// span is recorded per this many StepBatch calls.
const stepSpanSample = 64

// Serve is the scheduler's one decode loop. It admits queued streams into
// free slots and advances every active stream each batched step: a decoding
// stream by one token, prefilling streams by runs of prompt tokens. Streams
// submitted while it runs join at the next step boundary, and when no stream
// is active it blocks until a submission arrives. A step that fails ends
// that step's streams with its error and serving goes on. Serve returns
// ctx.Err() only when ctx is cancelled, finishing every unfinished stream
// with context.Cause(ctx) (the server's Drain cancels with ErrDraining),
// or with its own cause if it was cancelled first.
func (s *Scheduler) Serve(ctx context.Context) error {
	span := obsv.StartSpan("decode.run")
	defer span.End()
	var stepCount uint64

	// active is indexed by slot; nil entries are free slots.
	active := make([]*Stream, s.dec.Slots())
	nActive := 0
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

	// admit retires cancelled queued streams and moves queued streams, in
	// queue order, into free slots, binding each slot to its stream's
	// adapter. It returns the remaining queue depth.
	admit := func() int {
		s.mu.Lock()
		defer s.mu.Unlock()
		kept := s.queue[:0]
		for _, st := range s.queue {
			if err := st.cancelled(); err != nil {
				finish(st, Result{ID: st.req.ID, Err: err})
				continue
			}
			if nActive == len(active) {
				kept = append(kept, st)
				continue
			}
			slot, err := s.dec.Acquire()
			if err != nil {
				finish(st, Result{ID: st.req.ID, Err: err})
				continue
			}
			st.slot = slot
			active[slot] = st
			nActive++
			prev := s.dec.AdapterAt(slot)
			if err := s.dec.SetAdapterAt(slot, st.req.Adapter); err != nil {
				finish(st, Result{ID: st.req.ID, Err: err})
				continue
			}
			if prev != st.req.Adapter {
				obsv.Add("serve.adapter_swaps", 1)
			}
			prefill = append(prefill, st)
			obsv.Add("decode.streams_admitted", 1)
			st.timing.Admitted = time.Now()
			wait := float64(st.timing.Admitted.Sub(st.timing.Submitted)) / float64(time.Millisecond)
			if st.req.Tenant != "" {
				obsv.Observe("serve.queue_wait_ms", wait, obsv.L("tenant", st.req.Tenant))
			} else {
				obsv.Observe("serve.queue_wait_ms", wait)
			}
		}
		clear(s.queue[len(kept):])
		s.queue = kept
		return len(s.queue)
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
		if s.dec.Lanes() > 1 {
			// The handlers the last step's tokens made runnable wait on this
			// goroutine's P, and the decoder's helpers take the other Ps for
			// the step: let the handlers write their tokens first. Without
			// this yield chat_f32 read 2589–2876 tok/s against 3057–3176,
			// and some runs wrote two token lines at once.
			runtime.Gosched()
		}
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
		tm := &st.timing
		tm.Steps++
		tm.DecodeNS += stepNS
		st.fed += fed
		if st.fed < len(st.req.Prompt) {
			return // more prompt to feed: the run's logits are not sampled
		}
		tok := nn.SampleLogits(row, st.req.Cfg, st.rng)
		if tm.FirstToken.IsZero() {
			tm.FirstToken = stepEnd
		} else if gap := int64(stepEnd.Sub(tm.LastToken)); gap > tm.MaxGapNS {
			tm.MaxGapNS = gap
		}
		tm.LastToken = stepEnd
		st.sampled = append(st.sampled, tok)
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

	for {
		if err := ctx.Err(); err != nil {
			// Every queued and active stream finishes with the context's
			// cause, or with its own if it was cancelled first.
			s.mu.Lock()
			queued := s.queue
			s.queue = nil
			s.mu.Unlock()
			for _, st := range append(queued, active...) {
				if st != nil {
					st.CancelCause(context.Cause(ctx))
					finish(st, Result{ID: st.req.ID, Err: st.cancelled()})
				}
			}
			return err
		}

		queueDepth := admit()
		obsv.SetGauge("decode.queue_depth", float64(queueDepth))
		obsv.SetGauge("decode.active_slots", float64(nActive))
		obsv.SetGauge("decode.arena_active_bytes", float64(s.dec.ArenaActiveBytes()))

		if nActive == 0 {
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
			if err := st.cancelled(); err != nil {
				finish(st, Result{ID: st.req.ID, Err: err})
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
			// step's streams rather than guess, then keep serving.
			for _, st := range streams {
				finish(st, Result{ID: st.req.ID, Err: err})
			}
			continue
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
// ErrClosed. It does not interrupt a running Serve; cancel its context
// for that (which also finishes any still-queued streams).
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.wakeUp()
}
