package govern

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// StallError reports an experiment killed by the watchdog: either it
// outran its stage deadline or it stopped sending progress heartbeats.
type StallError struct {
	// Stage is the watched stage (the experiment id).
	Stage string
	// Phase says what fired: "stage-deadline" or "heartbeat".
	Phase string
	// Limit is the exceeded budget.
	Limit time.Duration
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("govern: stage %s stalled: %s exceeded %s", e.Stage, e.Phase, e.Limit)
}

// Watchdog enforces a stage deadline and a progress-heartbeat bound on one
// experiment. When either fires it cancels the experiment's context
// with the *StallError as its cause (context.Cause); cancellation is
// cooperative — the experiment (or an injected stall) observes ctx.Done()
// and unwinds. A nil *Watchdog is inert.
type Watchdog struct {
	stage      string
	start      time.Time
	stageLimit time.Duration
	idleLimit  time.Duration

	cancel   context.CancelCauseFunc
	lastBeat atomic.Int64 // UnixNano of the latest Beat; 0 = none yet
	fired    atomic.Pointer[StallError]
	firedAt  atomic.Int64 // UnixNano of the moment the stall fired; 0 = none

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Watch derives a cancellable context for one stage and starts its
// watchdog. The returned context carries the watchdog, so HeartbeatFunc
// recovers it anywhere below. With no deadline configured the context is
// returned unchanged and the watchdog is nil (inert).
//
// The heartbeat bound only arms after the first Beat: stages that never
// train (analytic experiments) are bounded by the stage deadline alone.
func (b Budget) Watch(ctx context.Context, stage string) (context.Context, *Watchdog) {
	if b.StageTimeout <= 0 && b.HeartbeatTimeout <= 0 {
		return ctx, nil
	}
	idle := b.HeartbeatTimeout
	if idle <= 0 {
		idle = b.StageTimeout / 2
	}
	cctx, cancel := context.WithCancelCause(ctx)
	w := &Watchdog{
		stage:      stage,
		start:      time.Now(),
		stageLimit: b.StageTimeout,
		idleLimit:  idle,
		cancel:     cancel,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	go w.loop()
	return withWatchdog(cctx, w), w
}

// Beat records one unit of progress (nil-safe). Trainer.Step calls it via
// the Heartbeat hook once per optimization step.
func (w *Watchdog) Beat() {
	if w != nil {
		w.lastBeat.Store(time.Now().UnixNano())
	}
}

// Err returns the stall that fired, or nil (nil-safe). Typed as error to
// compose with errors.As/Is without a typed-nil trap.
func (w *Watchdog) Err() error {
	if w == nil {
		return nil
	}
	if e := w.fired.Load(); e != nil {
		return e
	}
	return nil
}

// FiredAt returns when the stall fired, or the zero time if it never did
// (nil-safe). Serving code uses it to annotate a killed request's span and
// access-log record with the kill moment rather than the observation moment.
func (w *Watchdog) FiredAt() time.Time {
	if w == nil {
		return time.Time{}
	}
	ns := w.firedAt.Load()
	if ns == 0 {
		return time.Time{}
	}
	return time.Unix(0, ns)
}

// Stop shuts the watchdog down (nil-safe, idempotent) and releases its
// context resources. A stall that already fired stays reported by Err.
func (w *Watchdog) Stop() {
	if w == nil {
		return
	}
	w.stopOnce.Do(func() { close(w.stop) })
	<-w.done
	w.cancel(nil)
}

// loop wakes at the earliest pending deadline, re-checks (beats may have
// arrived while sleeping), and fires at most once.
func (w *Watchdog) loop() {
	defer close(w.done)
	timer := time.NewTimer(w.nextWake(time.Now()))
	defer timer.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-timer.C:
			now := time.Now()
			if e := w.expired(now); e != nil {
				w.firedAt.Store(now.UnixNano())
				w.fired.Store(e)
				w.cancel(e)
				return
			}
			timer.Reset(w.nextWake(time.Now()))
		}
	}
}

// expired returns the stall to report if any bound has passed at `now`.
func (w *Watchdog) expired(now time.Time) *StallError {
	if w.stageLimit > 0 && now.Sub(w.start) >= w.stageLimit {
		return &StallError{Stage: w.stage, Phase: "stage-deadline", Limit: w.stageLimit}
	}
	if last := w.lastBeat.Load(); last > 0 && w.idleLimit > 0 {
		if now.Sub(time.Unix(0, last)) >= w.idleLimit {
			return &StallError{Stage: w.stage, Phase: "heartbeat", Limit: w.idleLimit}
		}
	}
	return nil
}

// nextWake returns how long to sleep before the next deadline check.
func (w *Watchdog) nextWake(now time.Time) time.Duration {
	wake := time.Duration(1<<62 - 1)
	if w.stageLimit > 0 {
		if d := w.stageLimit - now.Sub(w.start); d < wake {
			wake = d
		}
	}
	if last := w.lastBeat.Load(); last > 0 && w.idleLimit > 0 {
		if d := w.idleLimit - now.Sub(time.Unix(0, last)); d < wake {
			wake = d
		}
	} else if w.idleLimit > 0 && w.idleLimit < wake {
		// Heartbeat not armed yet: poll at the idle bound so a first beat
		// arriving later is picked up without a wakeup storm.
		wake = w.idleLimit
	}
	if wake < time.Millisecond {
		wake = time.Millisecond
	}
	return wake
}

// ctxKey keys the watchdog in a context.
type ctxKey struct{}

func withWatchdog(ctx context.Context, w *Watchdog) context.Context {
	return context.WithValue(ctx, ctxKey{}, w)
}

// HeartbeatFunc returns a progress-heartbeat closure bound to the
// watchdog carried by ctx, or nil when no watchdog is watching. Wire it
// into Trainer.Heartbeat so every optimization step beats.
func HeartbeatFunc(ctx context.Context) func() {
	w, _ := ctx.Value(ctxKey{}).(*Watchdog)
	if w == nil {
		return nil
	}
	return w.Beat
}
