package tensor

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Work is one phase of a team's step, cut into units that touch disjoint
// outputs: RunUnit computes unit u on lane, whose per-lane scratch it may
// use. A product splits into MatMulColsInto (or MatMulPackedColsInto) units
// of BlockCols columns each, so that every element is the sum one call
// computes.
type Work interface {
	RunUnit(lane, u int)
}

// The post word of a team: postParked while no step runs, else the number
// of phases the team has posted, the last of which is the one to claim from.
// A lane's share of the posted phase is its cursor word, end<<32 | next, with
// next its first unclaimed unit.
const postParked = 1 << 63

// A lane with nothing to claim polls the post word (or, the leader, the done
// count), and times the wait by the clock: it reads the clock once every
// pollsPerClock polls (under a microsecond: a poll is about 0.8 ns on a 2-vCPU
// Xeon guest), first after the first pollsPerClock, so a short wait never
// reads it. The bounds below are durations, whatever a poll costs on the
// host.
//
// A lane yields its P once every leaderYield or helperYield it waits, so that
// an oversubscribed team (more lanes than Ps, or two teams stepping at once)
// still makes progress. The leader waits out a unit, at most some 20 µs of
// kernel, so it almost never yields: a goroutine handed the leader's P (an
// HTTP handler, say) would run until it blocks and stall the whole step
// behind it. A helper yields every 3 µs of a phase gap, so a goroutine made
// runnable on its P mid-step waits little; the leader takes the units the
// helper leaves meanwhile. A yield lets the scheduler wake an idle P's
// thread, and a thread it must first start allocates, so a lane yields once
// a bound, not on every poll past it.
const (
	pollsPerClock = 1 << 10
	leaderYield   = 50 * time.Microsecond
	helperYield   = 3 * time.Microsecond
)

// TeamLinger is how long a helper waits, once a step has parked, for the
// next step before it sleeps, so that a step that follows at once (a
// prompt's chunks, a benchmark loop, a server's next step when sampling and
// the token writes are quick) finds it awake: no wake-up to wait for. Between
// steps further apart the sleeping helper leaves its P to a server's
// handlers and to the network poller that wakes their clients; a helper that
// lingered 50 µs slept too rarely, and token lines reached the client two at
// a time.
const TeamLinger = 25 * time.Microsecond

// wait is one lane's run of empty polls.
type wait struct {
	polls  int
	since  time.Time
	waited time.Duration
}

// poll counts an empty poll and returns how long the wait has lasted as of
// the clock's last reading.
func (w *wait) poll() time.Duration {
	if w.polls++; w.polls%pollsPerClock == 0 {
		if w.polls == pollsPerClock {
			w.since = time.Now()
		} else {
			w.waited = time.Since(w.since)
		}
	}
	return w.waited
}

// Team is a lane team (DESIGN.md §6, "One team, N lanes"): the goroutine
// that calls Start and Run leads as lane 0, and lanes-1 helper goroutines,
// started by NewTeam, run the other lanes. For each phase the leader cuts the
// units into one contiguous share per lane, lane i's the i-th of L, and posts
// the work. Every lane, the leader included, claims units one at a time from
// its own share and then from what is left of the others', so a unit runs on
// the same lane step after step (its weights stay in that core's cache)
// while a lane that arrives late (a helper still waking) or runs slow leaves
// the rest of its share to the others. The leader returns from Run once
// every unit is done. At one lane there is no helper: Run loops the units on
// the caller.
//
// Helpers poll the post word between Start and Park, the span of one step,
// and for TeamLinger after; otherwise they sleep on a read of their wake
// pipe and leave their P to other goroutines. A goroutine parked on a
// channel or a lock holds a sudog, taken from per-P caches whose central
// reserve every collection empties, so sleeping and waking there allocates
// now and then; one parked in the network poller holds only its file's
// descriptor, so a step allocates nothing whenever its helpers slept.
//
// One goroutine at a time leads a team; a team is not safe for concurrent
// steps. Stats may be read from any goroutine.
type Team struct {
	post atomic.Uint64
	_    [56]byte // keep the post word and the done count on separate lines
	done atomic.Uint64
	work Work   // the posted phase; nil between steps
	gen  uint64 // phases posted, the leader's copy of the post word

	steps, posted atomic.Uint64 // Stats' Steps and Units

	// panics[lane] is the first panic recovered from a unit on lane in the
	// current phase, re-raised by the leader once every unit is done.
	panics  []any
	lanes   []laneState // lanes[i] for every lane, the leader's included
	helpers []helper    // helpers[lane] for lanes ≥ 1
	exited  sync.WaitGroup
}

// laneState is one lane's share of the posted phase, written by every lane
// that claims from it, and its counters, written by the lane alone once a
// claim.
type laneState struct {
	share       atomic.Uint64 // end<<32 | next
	ran, stolen atomic.Uint64
	_           [40]byte // one cache line a lane
}

// TeamStats is what a team has done since NewTeam: the steps started, the
// units posted, and per lane the units it ran and, of those, how many it
// took from another lane's share. Every posted unit runs once, so the Ran
// counts sum to Units once the team is parked.
type TeamStats struct {
	Steps, Units uint64
	Ran, Stolen  []uint64
}

// Stats copies the team's counters into s, reusing its slices: a caller that
// keeps one TeamStats reads them without allocating. The counters are
// atomics, added to once a phase a lane, so any goroutine may read them; a
// read during a step may see a phase half counted.
func (t *Team) Stats(s *TeamStats) {
	s.Steps, s.Units = t.steps.Load(), t.posted.Load()
	s.Ran, s.Stolen = s.Ran[:0], s.Stolen[:0]
	for i := range t.lanes {
		s.Ran = append(s.Ran, t.lanes[i].ran.Load())
		s.Stolen = append(s.Stolen, t.lanes[i].stolen.Load())
	}
}

// helper is a helper lane's sleeping state: asleep while it reads, or is
// about to read, its wake pipe.
type helper struct {
	asleep atomic.Bool
	r, w   *os.File
	buf    [8]byte
}

// wakeByte is what Start writes to a sleeping helper's pipe.
var wakeByte = []byte{1}

// NewTeam starts the helpers of a lanes-lane team. A lane whose wake pipe
// cannot be made (a platform without pipes, a process out of descriptors)
// and the lanes after it are dropped: the team runs on fewer lanes. Stop
// ends the helpers.
func NewTeam(lanes int) *Team {
	t := &Team{panics: make([]any, 1, lanes), helpers: make([]helper, lanes)}
	t.post.Store(postParked)
	for lane := 1; lane < lanes; lane++ {
		r, w, err := os.Pipe()
		if err != nil {
			break
		}
		t.panics = append(t.panics, nil)
		t.helpers[lane].r, t.helpers[lane].w = r, w
	}
	// The lanes exist before the first helper runs: a helper claims from
	// every lane's share.
	t.lanes = make([]laneState, len(t.panics))
	for lane := 1; lane < t.Lanes(); lane++ {
		t.exited.Add(1)
		go t.help(lane)
	}
	return t
}

// Lanes returns the team's lane count, the leader's included.
func (t *Team) Lanes() int { return len(t.panics) }

// Start opens a step: it posts an empty phase and wakes the helpers that
// sleep. It does not yield: a caller whose last step made goroutines
// runnable on its P yields before the step (serve's scheduler does), and a
// back-to-back caller, a benchmark loop, has nothing to yield to; a yield
// with idle Ps lets the scheduler start a thread inside the caller's loop.
func (t *Team) Start() {
	t.steps.Add(1)
	if t.Lanes() == 1 {
		return
	}
	t.post.Store(t.gen)
	for lane := 1; lane < t.Lanes(); lane++ {
		if h := &t.helpers[lane]; h.asleep.Swap(false) {
			// A failed write leaves the helper asleep; the other lanes
			// claim its units.
			_, _ = h.w.Write(wakeByte)
		}
	}
}

// Park closes the step: helpers go back to sleep once they have lingered. It
// drops the last phase's work, so a parked team holds nothing of its caller.
func (t *Team) Park() {
	t.work = nil
	t.post.Store(postParked)
}

// Run computes units [0, n) of w on every lane and returns when all are done.
// It is called between Start and Park. A panic in a unit is recovered on its
// lane and re-raised here after the last unit has finished, so no lane writes
// once Run has returned or panicked.
func (t *Team) Run(w Work, n int) {
	t.posted.Add(uint64(n))
	if t.Lanes() == 1 || n == 1 {
		t.lanes[0].ran.Add(uint64(n))
		for u := range n {
			w.RunUnit(0, u)
		}
		return
	}
	t.work = w
	t.done.Store(0)
	for i := range t.lanes {
		lo, hi := i*n/t.Lanes(), (i+1)*n/t.Lanes()
		t.lanes[i].share.Store(uint64(hi)<<32 | uint64(lo))
	}
	t.gen++
	t.post.Store(t.gen)
	t.done.Add(t.claim(0))
	for wt := (wait{}); t.done.Load() < uint64(n); {
		if wt.poll() >= leaderYield {
			runtime.Gosched()
			wt = wait{}
		}
	}
	var first any
	for lane, p := range t.panics {
		if first == nil {
			first = p
		}
		t.panics[lane] = nil
	}
	if first != nil {
		panic(first)
	}
}

// claim runs units of the posted phase on lane until none is left
// unclaimed: first its own share, then each other lane's from the next lane
// on. It returns how many units it ran.
//
// A claim is an Add on a share's cursor, read back. A lane may still be
// claiming, having run nothing, when the leader posts the next phase; it
// then takes units of that phase, whose work was stored before its shares.
// A lane that has run a unit is counted in the done count only once its
// claim returns, so no phase is posted while it holds one. The surplus Adds
// past a share's end are bounded by the lane count and overwritten by the
// next post.
func (t *Team) claim(lane int) uint64 {
	var ran, stolen uint64
	for i := range t.Lanes() {
		from := (lane + i) % t.Lanes()
		c := &t.lanes[from].share
		if v := c.Load(); uint32(v) >= uint32(v>>32) {
			continue
		}
		for {
			v := c.Add(1) - 1
			if uint32(v) >= uint32(v>>32) {
				break
			}
			t.unit(lane, int(uint32(v)))
			if ran++; from != lane {
				stolen++
			}
		}
	}
	if ran > 0 {
		l := &t.lanes[lane]
		l.ran.Add(ran)
		l.stolen.Add(stolen)
	}
	return ran
}

// unit runs one unit of the posted phase on lane, recovering a panic into
// t.panics: the unit still counts as done, so a leader waiting on the count
// never hangs on a dead one.
func (t *Team) unit(lane, u int) {
	defer func() {
		if r := recover(); r != nil && t.panics[lane] == nil {
			t.panics[lane] = r
		}
	}()
	t.work.RunUnit(lane, u)
}

// help is helper lane's goroutine: it serves steps, sleeps on its wake pipe
// between them, and returns once the pipe's write end is closed. A helper
// that finds a step posted as it falls asleep serves it at once; the wake
// byte Start may then write costs it one more linger later.
func (t *Team) help(lane int) {
	defer t.exited.Done()
	h := &t.helpers[lane]
	defer h.r.Close()
	var seen uint64 // the last phase the lane claimed from
	for {
		t.serve(lane, &seen)
		h.asleep.Store(true)
		if t.post.Load()&postParked == 0 {
			h.asleep.Store(false)
			continue
		}
		if _, err := h.r.Read(h.buf[:]); err != nil {
			return
		}
	}
}

// serve claims units on lane as phases are posted, once a phase, and returns
// once the team is parked and the lane has waited TeamLinger since its last
// claim or yield. *seen is the last phase the lane claimed from.
func (t *Team) serve(lane int, seen *uint64) {
	var wt wait
	for {
		p := t.post.Load()
		switch {
		case p&postParked != 0:
			if wt.poll() >= TeamLinger {
				return
			}
		case p != *seen:
			*seen = p
			t.done.Add(t.claim(lane))
			wt = wait{}
		case wt.poll() >= helperYield:
			runtime.Gosched()
			wt = wait{}
		}
	}
}

// Stop ends the helpers and waits for them to exit. The team must be parked
// and is not used afterwards.
func (t *Team) Stop() {
	for lane := 1; lane < t.Lanes(); lane++ {
		t.helpers[lane].w.Close()
	}
	t.exited.Wait()
}
