package tensor

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// panicWork is a phase whose units on helper lanes panic, and whose first
// unit on the leader waits until a helper has begun one, so that a helper
// lane surely panics while the leader is still inside the phase.
type panicWork struct {
	helperIn atomic.Bool
	finished atomic.Int32
	timedOut atomic.Bool
}

func (w *panicWork) RunUnit(lane, u int) {
	defer w.finished.Add(1)
	if lane != 0 {
		w.helperIn.Store(true)
		panic(fmt.Sprintf("unit %d on helper lane %d", u, lane))
	}
	for deadline := time.Now().Add(10 * time.Second); !w.helperIn.Load(); runtime.Gosched() {
		if time.Now().After(deadline) {
			w.timedOut.Store(true)
			return
		}
	}
}

// countWork counts the runs of each unit.
type countWork struct{ runs []atomic.Int32 }

func (w *countWork) RunUnit(_, u int) { w.runs[u].Add(1) }

// step runs a phase of n counted units on tm, as one step, and reports the
// first unit that did not run exactly once.
func step(tm *Team, n int) error {
	w := &countWork{runs: make([]atomic.Int32, n)}
	tm.Start()
	tm.Run(w, n)
	tm.Park()
	for u := range w.runs {
		if r := w.runs[u].Load(); r != 1 {
			return fmt.Errorf("unit %d of %d ran %d times", u, n, r)
		}
	}
	return nil
}

// TestTeamHelperPanicReraisedAfterLastUnit: a panic in a helper's unit is
// recovered there and re-raised by the leader only once every unit of the
// phase has finished, and the team runs its next phase whole.
func TestTeamHelperPanicReraisedAfterLastUnit(t *testing.T) {
	for lanes := 2; lanes <= 4; lanes++ {
		tm := NewTeam(lanes)
		const n = 16
		w := &panicWork{}
		var got any
		func() {
			defer func() { got = recover() }()
			tm.Start()
			defer tm.Park()
			tm.Run(w, n)
		}()
		if w.timedOut.Load() {
			t.Fatalf("lanes %d: no helper claimed a unit in 10 s", lanes)
		}
		if s, ok := got.(string); !ok || !strings.HasPrefix(s, "unit ") {
			t.Fatalf("lanes %d: Run re-raised %v, want a helper unit's panic", lanes, got)
		}
		if f := w.finished.Load(); f != n {
			t.Fatalf("lanes %d: panic re-raised with %d of %d units finished", lanes, f, n)
		}
		if err := step(tm, n); err != nil {
			t.Fatalf("lanes %d: the phase after a panic: %v", lanes, err)
		}
		tm.Stop()
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 10 ms: a helper has returned once Stop has waited for it, but leaves the
// count a moment later.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for range 100 {
		time.Sleep(10 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// TestTeamStopEndsHelpers: NewTeam starts lanes-1 helpers, and Stop returns
// once every one has exited, whether it slept or was still lingering after
// a step.
func TestTeamStopEndsHelpers(t *testing.T) {
	base := settledGoroutines()
	for lanes := 1; lanes <= 4; lanes++ {
		for _, stepped := range []bool{false, true} {
			tm := NewTeam(lanes)
			if tm.Lanes() != lanes {
				t.Fatalf("NewTeam(%d) has %d lanes", lanes, tm.Lanes())
			}
			if got := runtime.NumGoroutine(); got != base+lanes-1 {
				t.Fatalf("lanes %d: %d goroutines after NewTeam, want %d + %d helpers", lanes, got, base, lanes-1)
			}
			if stepped {
				if err := step(tm, 8); err != nil {
					t.Fatalf("lanes %d: %v", lanes, err)
				}
			}
			tm.Stop()
			if got := settledGoroutines(); got != base {
				t.Fatalf("lanes %d, stepped %v: %d goroutines after Stop, want %d", lanes, stepped, got, base)
			}
		}
	}
}

// TestTeamStepsAcrossLinger steps with gaps on both sides of TeamLinger, so
// that steps find their helpers polling, falling asleep or asleep: every
// step runs each of its units exactly once.
func TestTeamStepsAcrossLinger(t *testing.T) {
	gaps := []time.Duration{0, TeamLinger / 2, TeamLinger, TeamLinger + TeamLinger/4, 2 * TeamLinger, 0, 200 * time.Microsecond}
	for lanes := 2; lanes <= 4; lanes++ {
		tm := NewTeam(lanes)
		for i := range 50 {
			if gap := gaps[i%len(gaps)]; gap > 0 {
				for end := time.Now().Add(gap); time.Now().Before(end); {
				}
			}
			if err := step(tm, 1+i%12); err != nil {
				t.Fatalf("lanes %d step %d: %v", lanes, i, err)
			}
		}
		tm.Stop()
	}
}
