// Package fault provides deterministic failure-injection primitives for
// the fault-tolerance test suite and the CLI's -fault smoke mode: writers
// that fail on a chosen call, tripwires that fire on a chosen activation,
// seeded bit-flip corrupters for durability tests, and an experiment-suite
// injector that maps experiment ids to failure modes.
//
// Everything in this package is deterministic. Corrupters derive their
// choices from an explicit seed, tripwires and writers count calls, and the
// injector keys strictly off (experiment id, attempt). A test that injects
// a fault therefore fails the same way on every run.
package fault

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	"edgellm/internal/artifact"
)

// TransientError is an injected failure that models a recoverable
// condition (I/O hiccup, preempted worker). The experiment runner treats
// any error chain containing a Retryable()=true link as retryable.
type TransientError struct{ Msg string }

// Error implements error.
func (e *TransientError) Error() string { return "fault: transient: " + e.Msg }

// Retryable marks the error as clearable by a retry.
func (e *TransientError) Retryable() bool { return true }

// PermanentError is an injected failure that a retry must not clear.
type PermanentError struct{ Msg string }

// Error implements error.
func (e *PermanentError) Error() string { return "fault: permanent: " + e.Msg }

// FailNthWriter passes writes through to W until the Nth Write call
// (1-based), which fails with Err without writing anything. Later calls
// keep failing, modelling a dead disk rather than a one-off glitch.
type FailNthWriter struct {
	W   io.Writer
	N   int
	Err error

	calls int
}

// Write implements io.Writer.
func (w *FailNthWriter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls >= w.N {
		err := w.Err
		if err == nil {
			err = &TransientError{Msg: fmt.Sprintf("injected write failure (call %d)", w.calls)}
		}
		return 0, err
	}
	return w.W.Write(p)
}

// Calls reports how many Write calls have been made.
func (w *FailNthWriter) Calls() int { return w.calls }

// Tripwire fires on its Nth activation (1-based). It is safe for
// concurrent use, so a tripwire can be shared across parallel grid points.
type Tripwire struct {
	N     int64
	calls atomic.Int64
}

// Hit records one activation and reports whether this was the Nth.
func (t *Tripwire) Hit() bool { return t.calls.Add(1) == t.N }

// MustNotPanic is a step hook that panics on the Nth activation; tests use
// it to prove the runner isolates a crashing task.
func (t *Tripwire) PanicOnNth(msg string) {
	if t.Hit() {
		panic(fmt.Sprintf("fault: injected panic: %s (activation %d)", msg, t.N))
	}
}

// FlipBit flips bit i (0 ≤ i < 8·len(buf)) of buf in place.
func FlipBit(buf []byte, i int) {
	buf[i/8] ^= 1 << (i % 8)
}

// Corrupter deals seeded, reproducible corruption for durability tests.
type Corrupter struct{ rng *rand.Rand }

// NewCorrupter returns a corrupter whose choices are fully determined by
// seed.
func NewCorrupter(seed int64) *Corrupter {
	return &Corrupter{rng: rand.New(rand.NewSource(seed))}
}

// FlipRandomBit flips one uniformly chosen bit of buf and returns its
// index.
func (c *Corrupter) FlipRandomBit(buf []byte) int {
	i := c.rng.Intn(8 * len(buf))
	FlipBit(buf, i)
	return i
}

// Truncate returns buf cut to a uniformly chosen proper prefix (possibly
// empty).
func (c *Corrupter) Truncate(buf []byte) []byte {
	return buf[:c.rng.Intn(len(buf))]
}

// Reseal returns an artifact's magic and body under a freshly computed
// footer, so that bytes a fuzzer or a Corrupter has mutated get past the
// checksum and reach the loader's checks behind it. Input too short to hold a
// magic and a footer comes back unchanged.
func Reseal(data []byte) []byte {
	if len(data) < 16 {
		return data
	}
	var buf bytes.Buffer
	w := artifact.NewWriter(&buf, artifact.Magic(data[:8]))
	w.Write(data[8 : len(data)-8])
	w.Close()
	return buf.Bytes()
}

// Allocated returns the bytes f allocates on the heap, live or not: what a
// loader fed a lying length is allowed to cost.
func Allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// --- experiment-suite injection ----------------------------------------------

// Mode is one injected failure behaviour for a suite task.
type Mode string

const (
	// ModePanic panics on every attempt: the task degrades to an
	// error-annotated row no matter how often it is retried.
	ModePanic Mode = "panic"
	// ModeFlaky fails the first attempt with a retryable error and lets
	// every later attempt through: bounded retry recovers the task.
	ModeFlaky Mode = "flaky"
	// ModeFail returns a permanent, non-retryable error on every attempt.
	ModeFail Mode = "fail"
	// ModeStall blocks until the attempt's context is cancelled — the
	// deterministic hung-experiment model the resource governor's stall
	// watchdog is tested against. Without a watchdog (or other cancel),
	// the task blocks until the whole suite is cancelled.
	ModeStall Mode = "stall"
	// ModeCancel marks the target for mid-flight cancellation. The serving
	// path interprets it as "cancel this stream halfway through its
	// generation" — the deterministic model of a client that gives up.
	// Hook treats it as a no-op; seams that honour it use ModeFor.
	ModeCancel Mode = "cancel"
)

// Injector maps experiment ids to injected failure modes. Its Hook method
// matches the experiment runner's injection seam.
type Injector struct{ modes map[string]Mode }

// ParseSpec builds an Injector from a comma-separated list of mode=ID
// pairs, e.g. "panic=F5,flaky=T3,fail=A2". The shorthand "smoke" expands
// to a built-in spec exercising one permanent panic and one retried
// transient failure on cheap analytic experiments.
func ParseSpec(spec string) (*Injector, error) {
	if spec == "smoke" {
		spec = "panic=F5,flaky=T3"
	}
	in := &Injector{modes: map[string]Mode{}}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		mode, id, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault: bad injection %q (want mode=ID)", part)
		}
		switch Mode(mode) {
		case ModePanic, ModeFlaky, ModeFail, ModeStall, ModeCancel:
			in.modes[strings.ToUpper(strings.TrimSpace(id))] = Mode(mode)
		default:
			return nil, fmt.Errorf("fault: unknown injection mode %q (want panic, flaky, fail, stall, or cancel)", mode)
		}
	}
	if len(in.modes) == 0 {
		return nil, fmt.Errorf("fault: empty injection spec %q", spec)
	}
	return in, nil
}

// Targets returns the injected experiment ids in sorted order.
func (in *Injector) Targets() []string {
	ids := make([]string, 0, len(in.modes))
	for id := range in.modes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Describe renders the injection plan for logs.
func (in *Injector) Describe() string {
	var b strings.Builder
	for i, id := range in.Targets() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", in.modes[id], id)
	}
	return b.String()
}

// ModeFor returns the mode injected for id ("" when uninjected). Seams
// that spread one injection across several stages — like the serving
// path, which panics in the token hook but cancels at the halfway token —
// dispatch on this instead of calling Hook.
func (in *Injector) ModeFor(id string) Mode {
	if in == nil {
		return ""
	}
	return in.modes[strings.ToUpper(id)]
}

// Hook is the runner injection seam: it is called at the start of every
// task attempt and fails (or panics, or hangs) according to the configured
// mode. ctx is the attempt's context; ModeStall blocks on it.
func (in *Injector) Hook(ctx context.Context, id string, attempt int) error {
	switch in.modes[id] {
	case ModePanic:
		panic(fmt.Sprintf("fault: injected panic in %s (attempt %d)", id, attempt))
	case ModeFlaky:
		if attempt == 0 {
			return &TransientError{Msg: fmt.Sprintf("injected first-attempt failure in %s", id)}
		}
	case ModeFail:
		return &PermanentError{Msg: fmt.Sprintf("injected permanent failure in %s", id)}
	case ModeStall:
		return Stall(ctx, id)
	}
	return nil
}

// Stall models a hung task: it blocks until ctx is cancelled, then returns
// a permanent error naming the stall. It never returns nil and never
// returns before cancellation, so the only way past it is a watchdog (or
// suite-level) cancel — exactly the behaviour a deadlocked experiment
// would have, minus the leaked goroutine.
func Stall(ctx context.Context, id string) error {
	<-ctx.Done()
	return &PermanentError{Msg: fmt.Sprintf("injected stall in %s released by cancellation (%v)", id, ctx.Err())}
}
