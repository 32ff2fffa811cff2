package tensor

import (
	"fmt"
	"runtime"
	"slices"
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

// shareWork records which lane ran each unit. Every lane's first unit waits
// until all lanes have begun one, so each lane has claimed its first unit
// before any lane can take from another's share; lane 1 then stays inside
// its first unit until every other unit has run.
type shareWork struct {
	lanes    int32
	lane     []atomic.Int32 // lane[u]+1 once unit u ran; 0 before
	runs     []atomic.Int32
	first    []atomic.Int32 // first[lane]+1: the first unit lane ran
	begun    atomic.Int32
	finished atomic.Int32
	timedOut atomic.Bool
}

func (w *shareWork) RunUnit(lane, u int) {
	w.runs[u].Add(1)
	w.lane[u].Store(int32(lane) + 1)
	defer w.finished.Add(1)
	if !w.first[lane].CompareAndSwap(0, int32(u)+1) {
		return
	}
	w.begun.Add(1)
	w.await(func() bool { return w.begun.Load() == w.lanes })
	if lane == 1 {
		w.await(func() bool { return int(w.finished.Load()) == len(w.runs)-1 })
	}
}

// await polls done for up to 10 s, yielding, so that an oversubscribed team
// still reaches it.
func (w *shareWork) await(done func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !done(); runtime.Gosched() {
		if time.Now().After(deadline) {
			w.timedOut.Store(true)
			return
		}
	}
}

// TestTeamClaimsOwnShareFirst: at 2 to 4 lanes, each lane's first unit is the
// first of its own share, i·n/L; a lane held inside that unit has the rest of
// its share run by the others; every unit runs exactly once; and the
// counters agree with what ran where: the units run sum to the units posted,
// and each lane's stolen count is the units it ran of other lanes' shares.
func TestTeamClaimsOwnShareFirst(t *testing.T) {
	for lanes := 2; lanes <= 4; lanes++ {
		tm := NewTeam(lanes)
		n := 4*lanes + 1
		w := &shareWork{
			lanes: int32(lanes),
			lane:  make([]atomic.Int32, n),
			runs:  make([]atomic.Int32, n),
			first: make([]atomic.Int32, lanes),
		}
		tm.Start()
		tm.Run(w, n)
		tm.Park()
		if w.timedOut.Load() {
			t.Fatalf("lanes %d: a lane waited 10 s for the others", lanes)
		}
		for u := range n {
			if r := w.runs[u].Load(); r != 1 {
				t.Fatalf("lanes %d: unit %d ran %d times", lanes, u, r)
			}
		}
		for l := range lanes {
			if got, want := int(w.first[l].Load())-1, l*n/lanes; got != want {
				t.Errorf("lanes %d: lane %d began with unit %d, want %d, the first of its share", lanes, l, got, want)
			}
		}
		lo1, hi1 := n/lanes, 2*n/lanes
		for u := lo1 + 1; u < hi1; u++ {
			if l := w.lane[u].Load() - 1; l == 1 {
				t.Errorf("lanes %d: unit %d of held lane 1's share ran on lane 1", lanes, u)
			}
		}
		ran, stolen := make([]uint64, lanes), make([]uint64, lanes)
		for u := range n {
			l := int(w.lane[u].Load() - 1)
			ran[l]++
			owner := 0
			for u >= (owner+1)*n/lanes {
				owner++
			}
			if l != owner {
				stolen[l]++
			}
		}
		var s TeamStats
		tm.Stats(&s)
		if s.Steps != 1 || s.Units != uint64(n) || !slices.Equal(s.Ran, ran) || !slices.Equal(s.Stolen, stolen) {
			t.Errorf("lanes %d: stats %+v: want 1 step, %d units, ran %v, stolen %v", lanes, s, n, ran, stolen)
		}
		tm.Stop()
	}
}

// TestTeamStatsCountEveryUnit: over steps of one to twelve units, one-unit
// phases and a one-lane team included, the units the lanes ran sum to the
// units posted, and reading the counters allocates nothing.
func TestTeamStatsCountEveryUnit(t *testing.T) {
	for lanes := 1; lanes <= 4; lanes++ {
		tm := NewTeam(lanes)
		var posted uint64
		for i := range 40 {
			if err := step(tm, 1+i%12); err != nil {
				t.Fatalf("lanes %d step %d: %v", lanes, i, err)
			}
			posted += uint64(1 + i%12)
		}
		var s TeamStats
		tm.Stats(&s)
		if allocs := testing.AllocsPerRun(10, func() { tm.Stats(&s) }); allocs != 0 {
			t.Errorf("lanes %d: Stats allocates %v a call", lanes, allocs)
		}
		var ran uint64
		for _, r := range s.Ran {
			ran += r
		}
		if s.Steps != 40 || s.Units != posted || ran != posted || len(s.Ran) != lanes {
			t.Errorf("lanes %d: stats %+v: want 40 steps and %d units posted and run over %d lanes", lanes, s, posted, lanes)
		}
		tm.Stop()
	}
}
