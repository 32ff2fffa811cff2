package govern

import (
	"context"
	"errors"
	"testing"
	"time"
)

// waitDone blocks until the watched context is cancelled or the test-level
// grace period runs out.
func waitDone(t *testing.T, ctx context.Context) {
	t.Helper()
	select {
	case <-ctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("watchdog never cancelled the context")
	}
}

// TestWatchdogStageDeadline: a stage that outruns its deadline is cancelled
// and reported as a StallError.
func TestWatchdogStageDeadline(t *testing.T) {
	ctx, wd := Budget{StageTimeout: 20 * time.Millisecond}.Watch(context.Background(), "E1")
	defer wd.Stop()
	waitDone(t, ctx)
	var se *StallError
	if err := wd.Err(); !errors.As(err, &se) {
		t.Fatalf("Err() = %v, want *StallError", err)
	}
	if se.Stage != "E1" || se.Phase != "stage-deadline" {
		t.Fatalf("stall = %+v", se)
	}
	if wd.FiredAt().IsZero() {
		t.Fatal("FiredAt should be set once the stall fired")
	}
}

// TestWatchdogCauseIsStall: a stall cancels the watched context with the
// *StallError as its cause, so code holding only the context can tell a
// stall from any other cancellation; ctx.Err() stays context.Canceled. A
// clean Stop leaves the plain cancellation cause.
func TestWatchdogCauseIsStall(t *testing.T) {
	ctx, wd := Budget{StageTimeout: 20 * time.Millisecond}.Watch(context.Background(), "E1")
	defer wd.Stop()
	waitDone(t, ctx)
	if cause := context.Cause(ctx); cause != wd.Err() {
		t.Fatalf("context.Cause = %v, want the StallError %v", cause, wd.Err())
	}
	if !errors.Is(ctx.Err(), context.Canceled) {
		t.Fatalf("ctx.Err() = %v, want context.Canceled", ctx.Err())
	}

	healthy, hwd := Budget{StageTimeout: time.Hour}.Watch(context.Background(), "E2")
	hwd.Stop()
	if cause := context.Cause(healthy); !errors.Is(cause, context.Canceled) {
		t.Fatalf("context.Cause after a clean Stop = %v, want context.Canceled", cause)
	}
}

func TestWatchdogFiredAtZeroWhenHealthy(t *testing.T) {
	ctx, wd := Budget{StageTimeout: time.Hour}.Watch(context.Background(), "E1")
	_ = ctx
	if !wd.FiredAt().IsZero() {
		t.Fatal("FiredAt should be zero before any stall")
	}
	wd.Stop()
	if !wd.FiredAt().IsZero() {
		t.Fatal("FiredAt should stay zero after a clean Stop")
	}
	var nilWD *Watchdog
	if !nilWD.FiredAt().IsZero() {
		t.Fatal("nil watchdog FiredAt should be zero")
	}
}

// TestWatchdogHeartbeatFires: once beats start and then stop, the heartbeat
// bound kills the stage well before the stage deadline.
func TestWatchdogHeartbeatFires(t *testing.T) {
	b := Budget{StageTimeout: time.Hour, HeartbeatTimeout: 20 * time.Millisecond}
	ctx, wd := b.Watch(context.Background(), "E2")
	defer wd.Stop()
	wd.Beat() // arm, then go silent
	waitDone(t, ctx)
	var se *StallError
	if err := wd.Err(); !errors.As(err, &se) || se.Phase != "heartbeat" {
		t.Fatalf("Err() = %v, want heartbeat stall", err)
	}
}

// TestWatchdogBeatsKeepAlive: steady beats hold the heartbeat bound off.
func TestWatchdogBeatsKeepAlive(t *testing.T) {
	b := Budget{StageTimeout: time.Hour, HeartbeatTimeout: 80 * time.Millisecond}
	ctx, wd := b.Watch(context.Background(), "E3")
	defer wd.Stop()
	deadline := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(deadline) {
		wd.Beat()
		time.Sleep(5 * time.Millisecond)
	}
	if err := wd.Err(); err != nil {
		t.Fatalf("watchdog fired despite steady beats: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("context cancelled despite steady beats: %v", ctx.Err())
	}
}

// TestWatchdogHeartbeatUnarmedWithoutBeat: the heartbeat bound only arms
// after the first Beat, so analytic stages that never train are not killed
// by it.
func TestWatchdogHeartbeatUnarmedWithoutBeat(t *testing.T) {
	b := Budget{StageTimeout: time.Hour, HeartbeatTimeout: 15 * time.Millisecond}
	ctx, wd := b.Watch(context.Background(), "E4")
	defer wd.Stop()
	time.Sleep(100 * time.Millisecond)
	if err := wd.Err(); err != nil {
		t.Fatalf("watchdog fired with no beats ever sent: %v", err)
	}
	if ctx.Err() != nil {
		t.Fatalf("context cancelled with no beats ever sent: %v", ctx.Err())
	}
}

// TestWatchdogDisabled: a zero budget returns the context unchanged and a
// nil (inert) watchdog; every nil-receiver method is safe.
func TestWatchdogDisabled(t *testing.T) {
	ctx := context.Background()
	got, wd := Budget{}.Watch(ctx, "E5")
	if got != ctx || wd != nil {
		t.Fatalf("zero budget: ctx changed (%v) or watchdog non-nil (%v)", got != ctx, wd)
	}
	wd.Beat()
	wd.Stop()
	if wd.Err() != nil {
		t.Fatal("nil watchdog reported an error")
	}
	if HeartbeatFunc(ctx) != nil {
		t.Fatal("HeartbeatFunc returned a beat for an unwatched context")
	}
}

// TestHeartbeatFuncRecoversWatchdog: the watched context carries the
// watchdog, and the recovered closure actually beats it.
func TestHeartbeatFuncRecoversWatchdog(t *testing.T) {
	ctx, wd := Budget{StageTimeout: time.Hour}.Watch(context.Background(), "E6")
	defer wd.Stop()
	beat := HeartbeatFunc(ctx)
	if beat == nil {
		t.Fatal("HeartbeatFunc returned nil for a watched context")
	}
	beat()
	if wd.lastBeat.Load() == 0 {
		t.Fatal("recovered heartbeat closure did not beat the watchdog")
	}
}

// TestWatchdogStopIsIdempotent: Stop twice, then Err still answers.
func TestWatchdogStopIsIdempotent(t *testing.T) {
	_, wd := Budget{StageTimeout: time.Hour}.Watch(context.Background(), "E7")
	wd.Stop()
	wd.Stop()
	if wd.Err() != nil {
		t.Fatal("stopped watchdog reported a stall")
	}
}
