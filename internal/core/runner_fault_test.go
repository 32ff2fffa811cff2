package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"edgellm/internal/fault"
)

// analyticOnly is a cheap all-analytic selection for fault tests: nothing
// trains, so injected failures dominate the runtime.
var analyticOnly = []string{"T3", "F1", "F4"}

// TestRunAllIsolatesPanic is the panic-isolation acceptance criterion: with
// a panic injected into one experiment, RunAll must complete every other
// experiment, report the failed one as a degraded row, and not crash — at
// any parallelism.
func TestRunAllIsolatesPanic(t *testing.T) {
	inj, err := fault.ParseSpec("panic=F1")
	if err != nil {
		t.Fatal(err)
	}
	for _, parallel := range []int{1, 3} {
		reports, err := RunAll(context.Background(), SuiteOpts{
			Sizes: tinySizes(), Parallel: parallel, Only: analyticOnly,
			Inject: inj.Hook,
		})
		if err != nil {
			t.Fatalf("parallel=%d: RunAll failed outright: %v", parallel, err)
		}
		if len(reports) != len(analyticOnly) {
			t.Fatalf("parallel=%d: %d reports, want %d", parallel, len(reports), len(analyticOnly))
		}
		for i, r := range reports {
			if r.ID != analyticOnly[i] {
				t.Fatalf("parallel=%d: report %d is %s, want %s", parallel, i, r.ID, analyticOnly[i])
			}
			if r.ID == "F1" {
				if !r.Failed() {
					t.Fatalf("parallel=%d: injected panic did not degrade F1", parallel)
				}
				if !strings.Contains(r.Err, "injected panic") {
					t.Fatalf("parallel=%d: F1 error %q does not name the panic", parallel, r.Err)
				}
			} else if r.Failed() {
				t.Fatalf("parallel=%d: healthy experiment %s degraded: %s", parallel, r.ID, r.Err)
			}
		}
	}
}

// retryableErr reports itself retryable; RunAll still runs its
// experiment once.
type retryableErr struct{}

func (retryableErr) Error() string   { return "claims to be retryable" }
func (retryableErr) Retryable() bool { return true }

// TestRunAllPermanentErrorNotRetried: each experiment runs once, so even
// an error that calls itself retryable degrades after exactly one attempt.
func TestRunAllPermanentErrorNotRetried(t *testing.T) {
	var attempts atomic.Int64
	reports, err := RunAll(context.Background(), SuiteOpts{
		Sizes: tinySizes(), Parallel: 1, Only: []string{"F1"},
		Inject: func(context.Context, string) error {
			attempts.Add(1)
			return retryableErr{}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Failed() || !strings.Contains(reports[0].Err, "retryable") {
		t.Fatalf("failure not reported: %+v", reports[0])
	}
	if attempts.Load() != 1 {
		t.Fatalf("experiment attempted %d times, want 1", attempts.Load())
	}
}

// TestRunAllCancelledMidRun: cancellation from inside the run (as a signal
// handler would do) surfaces as RunAll's error.
func TestRunAllCancelledMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := RunAll(ctx, SuiteOpts{
		Sizes: tinySizes(), Parallel: 2, Only: analyticOnly,
		Inject: func(context.Context, string) error {
			cancel()
			return nil
		},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestParallelForPanicPropagation: a panic on a pool goroutine must come
// back to the caller (as *taskPanic) after all in-flight tasks drain — not
// kill the process, and not hang.
func TestParallelForPanicPropagation(t *testing.T) {
	defer installPool(4)()
	var ran atomic.Int64
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		parallelFor(32, func(i int) {
			if i == 5 {
				panic("grid point blew up")
			}
			ran.Add(1)
		})
	}()
	tp, ok := recovered.(*taskPanic)
	if !ok {
		t.Fatalf("recovered %T (%v), want *taskPanic", recovered, recovered)
	}
	if fmt.Sprint(tp.val) != "grid point blew up" {
		t.Fatalf("panic value = %v", tp.val)
	}
	if len(tp.stack) == 0 {
		t.Fatal("taskPanic lost the stack trace")
	}
	if ran.Load() == 0 || ran.Load() >= 32 {
		t.Fatalf("ran = %d, want some but not all tasks", ran.Load())
	}
}

// TestFailedReportRenders: degraded reports must render through both output
// paths without crashing and advertise their failure.
func TestFailedReportRenders(t *testing.T) {
	r := failedReport("F9", errors.New("boom\nwith a second line"))
	if !r.Failed() || r.ID != "F9" {
		t.Fatalf("bad degraded report: %+v", r)
	}
	if s := r.String(); !strings.Contains(s, "boom") || strings.Contains(s, "second line") {
		t.Fatalf("String() = %q: want first error line only", s)
	}
	if md := r.Markdown(); !strings.Contains(md, "boom") {
		t.Fatalf("Markdown() = %q", md)
	}
}
