package nn

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"edgellm/internal/tensor"
)

// laneCount is how many lanes a decoder built now runs its steps on: one per
// core the process may use, min(GOMAXPROCS, NumCPU). A lane past the cores
// would only wait for one to come free.
func laneCount() int {
	if forcedLanes > 0 {
		return forcedLanes
	}
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// forcedLanes, when positive, is laneCount's answer. Only tests set it, to
// run the decoder at lane counts this host would not pick.
var forcedLanes int

// phaseWork is one phase of a step, cut into units that touch disjoint
// outputs: runUnit computes unit u on lane, whose per-lane scratch it may use.
type phaseWork interface {
	runUnit(lane, u int)
}

// The post word of a team: postParked while no step runs, else
// n<<32 | next, with n the posted phase's unit count and next its first
// unclaimed unit.
const postParked = 1 << 63

// A lane with nothing to claim polls the post word (or, the leader, the done
// count), and times the wait by the clock: it reads the clock once every
// pollsPerClock polls (under a microsecond: a poll is about 0.8 ns on a 2-vCPU
// Xeon guest), first after the first pollsPerClock, so a short wait never
// reads it. The bounds below are durations, whatever a poll costs on the
// host.
//
// A lane yields its P once every leaderYield or helperYield it waits, so that
// an oversubscribed team (more lanes than Ps, or two decoders stepping at
// once) still makes progress. The leader waits out a unit, at most some 20 µs
// of kernel, so it almost never yields: a goroutine handed the leader's P (an
// HTTP handler, say) would run until it blocks and stall the whole step
// behind it. A helper yields every 3 µs of a phase gap, so a goroutine made
// runnable on its P mid-step waits little; the leader takes the units the
// helper leaves meanwhile. A yield lets the scheduler wake an idle P's
// thread, and a thread it must first start allocates, so a lane yields once
// a bound, not on every poll past it.
//
// Once a step has parked, a helper waits linger for the next step before it
// sleeps, so a step that follows at once (a prompt's chunks, a
// benchmark loop, a server's next step when sampling and the token writes
// are quick) finds it awake: no wake-up to wait for. Between steps further
// apart the sleeping helper leaves its P to a server's handlers and to the
// network poller that wakes their clients; a helper that lingered 50 µs slept
// too rarely, and token lines reached the client two at a time.
const (
	pollsPerClock = 1 << 10
	leaderYield   = 50 * time.Microsecond
	helperYield   = 3 * time.Microsecond
	linger        = 25 * time.Microsecond
)

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

// team is a decoder's lane team (DESIGN.md §6, "One step, N lanes"): the
// goroutine calling StepBatch leads as lane 0, and lanes-1 helper goroutines,
// started with the decoder, run the other lanes. For each phase the leader
// posts the work and its unit count, and every lane, the leader included,
// claims units one at a time until none is left, so a lane that arrives late
// (a helper still waking) or runs slow leaves its share to the others. The
// leader returns from run once every unit is done. At one lane there is no
// helper: run loops the units on the caller.
//
// Helpers poll the post word between start and park, the span of one
// StepBatch, and for linger after; otherwise they sleep on a read of their
// wake pipe and leave their P to other goroutines. A goroutine parked on a
// channel or a lock holds a sudog, taken from per-P caches whose central
// reserve every collection empties, so sleeping and waking there allocates
// now and then; one parked in the network poller holds only its file's
// descriptor, so a step allocates nothing whenever its helpers slept.
type team struct {
	post atomic.Uint64
	_    [56]byte // keep the claimed word and the done count on separate lines
	done atomic.Uint64
	work phaseWork // the posted phase; nil between steps

	// panics[lane] is the first panic recovered from a unit on lane in the
	// current phase, re-raised by the leader once every unit is done.
	panics  []any
	helpers []helper // helpers[lane] for lanes ≥ 1
	exited  sync.WaitGroup
}

// helper is a helper lane's sleeping state: asleep while it reads, or is
// about to read, its wake pipe.
type helper struct {
	asleep atomic.Bool
	r, w   *os.File
	buf    [8]byte
}

// wakeByte is what start writes to a sleeping helper's pipe.
var wakeByte = []byte{1}

// newTeam starts the helpers of a lanes-lane team. A lane whose wake pipe
// cannot be made (a platform without pipes, a process out of descriptors)
// and the lanes after it are dropped: the team runs on fewer lanes.
func newTeam(lanes int) *team {
	t := &team{panics: make([]any, 1, lanes), helpers: make([]helper, lanes)}
	t.post.Store(postParked)
	for lane := 1; lane < lanes; lane++ {
		r, w, err := os.Pipe()
		if err != nil {
			break
		}
		t.panics = append(t.panics, nil)
		t.helpers[lane].r, t.helpers[lane].w = r, w
		t.exited.Add(1)
		go t.help(lane)
	}
	return t
}

// lanes returns the team's lane count, the leader's included.
func (t *team) lanes() int { return len(t.panics) }

// start opens a step: it posts an empty phase and wakes the helpers that
// sleep. It does not yield: a caller whose last step made goroutines
// runnable on its P yields before the step (serve's scheduler does), and a
// back-to-back caller, a benchmark loop, has nothing to yield to; a yield
// with idle Ps lets the scheduler start a thread inside the caller's loop.
func (t *team) start() {
	if t.lanes() == 1 {
		return
	}
	t.post.Store(0)
	for lane := 1; lane < t.lanes(); lane++ {
		if h := &t.helpers[lane]; h.asleep.Swap(false) {
			// A failed write leaves the helper asleep; the other lanes
			// claim its units.
			_, _ = h.w.Write(wakeByte)
		}
	}
}

// park closes the step: helpers go back to sleep once they have lingered. It
// drops the last phase's work, so a parked team holds nothing of its decoder.
func (t *team) park() {
	t.work = nil
	t.post.Store(postParked)
}

// run computes units [0, n) of w on every lane and returns when all are done.
// A panic in a unit is recovered on its lane and re-raised here after the
// last unit has finished, so no lane writes once run has returned or
// panicked.
func (t *team) run(w phaseWork, n int) {
	if t.lanes() == 1 || n == 1 {
		for u := range n {
			w.runUnit(0, u)
		}
		return
	}
	t.work = w
	t.done.Store(0)
	t.post.Store(uint64(n) << 32)
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

// claim runs units of the posted phase on lane until none is left unclaimed.
// A claim is an Add on the post word, read back: it takes unit next of
// whichever phase is posted at that moment, or nothing when next has reached
// n (the surplus Adds are bounded by the lane count and overwritten by the
// next post).
func (t *team) claim(lane int) (units uint64) {
	for {
		p := t.post.Add(1) - 1
		if p&postParked != 0 || uint32(p) >= uint32(p>>32) {
			return units
		}
		t.unit(lane, int(uint32(p)))
		units++
	}
}

// unit runs one unit of the posted phase on lane, recovering a panic into
// t.panics: the unit still counts as done, so a leader waiting on the count
// never hangs on a dead one.
func (t *team) unit(lane, u int) {
	defer func() {
		if r := recover(); r != nil && t.panics[lane] == nil {
			t.panics[lane] = r
		}
	}()
	t.work.runUnit(lane, u)
}

// help is helper lane's goroutine: it serves steps, sleeps on its wake pipe
// between them, and returns once the pipe's write end is closed. A helper
// that finds a step posted as it falls asleep serves it at once; the wake
// byte start may then write costs it one more linger later.
func (t *team) help(lane int) {
	defer t.exited.Done()
	h := &t.helpers[lane]
	defer h.r.Close()
	for {
		t.serve(lane)
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

// serve claims units on lane as phases are posted, and returns once the team
// is parked and the lane has waited linger since its last unit or yield.
func (t *team) serve(lane int) {
	var wt wait
	for {
		p := t.post.Load()
		switch {
		case p&postParked != 0:
			if wt.poll() >= linger {
				return
			}
		case uint32(p) < uint32(p>>32):
			t.done.Add(t.claim(lane))
			wt = wait{}
		case wt.poll() >= helperYield:
			runtime.Gosched()
			wt = wait{}
		}
	}
}

// stop ends the helpers and waits for them to exit. The team must be parked.
func (t *team) stop() {
	for lane := 1; lane < t.lanes(); lane++ {
		t.helpers[lane].w.Close()
	}
	t.exited.Wait()
}

// projection is one product of a projection phase: out = x·w, through the
// packed kernel when p is non-nil.
type projection struct {
	out, w *tensor.Tensor
	p      tensor.PackedMat
}

// phase is the decoder's work for its team, one fan-out of a step at a
// time: with x set, up to three projections of x, cut into units of width
// columns in mats order; with x nil, attention over the step's rows, one row
// a unit. Every unit writes only its own output columns or its own row's
// context and score scratch.
type phase struct {
	d    *Decoder
	x    *tensor.Tensor
	mats [3]projection
	ends [3]int // ends[i]: the units of mats[:i+1]

	// width is a projection unit's columns: tensor.BlockCols, or at one
	// lane the model's widest output, so that each product there is one
	// kernel call. A call per 64-column block cost a one-lane packed step
	// 5–17% (fastest of five interleaved runs each, 2-vCPU Xeon guest).
	width int

	// attention: attendSlot's arguments but the row
	l      int
	slots  []int
	q, ctx []float32
}

func (ph *phase) runUnit(lane, u int) {
	if ph.x == nil {
		ph.d.attendSlot(ph.l, u, ph.slots[u], ph.q, ph.ctx)
		return
	}
	i := 0
	for u >= ph.ends[i] {
		i++
	}
	if i > 0 {
		u -= ph.ends[i-1]
	}
	pr := &ph.mats[i]
	jLo := u * ph.width
	jHi := min(jLo+ph.width, pr.out.Cols())
	if pr.p != nil {
		tensor.MatMulPackedColsInto(pr.out, ph.x, pr.p, ph.d.pscratch, lane, jLo, jHi)
	} else {
		tensor.MatMulColsInto(pr.out, ph.x, pr.w, jLo, jHi)
	}
}

// project computes layer l's block weights [lo, hi), which all read x, into
// their step buffers (projOut) as one phase of the team, through the packed
// kernel where the weight is packed, then adds each one's adapter side path.
func (d *Decoder) project(l, lo, hi int, x *tensor.Tensor) {
	B := x.Rows()
	ws := d.m.Blocks[l].linears()
	d.ph.x = x
	for wi := lo; wi < hi; wi++ {
		pr := projection{out: d.projOut(wi, B), w: ws[wi].W.Data}
		if d.packed != nil {
			if pr.p = d.packed.mats[l][wi]; pr.p != nil {
				d.pscratch.Reserve(d.team.lanes(), B, x.Cols(), pr.out.Cols())
			}
		}
		d.ph.mats[wi-lo] = pr
	}
	d.fanOut(hi - lo)
	for wi := lo; wi < hi; wi++ {
		d.addSide(d.ph.mats[wi-lo].out, x, d.rowSides, l, wi)
	}
}

// fanOut runs the projection phase of d.ph.x and d.ph.mats[:n] on the team.
func (d *Decoder) fanOut(n int) {
	units := 0
	for i, pr := range d.ph.mats[:n] {
		units += (pr.out.Cols() + d.ph.width - 1) / d.ph.width
		d.ph.ends[i] = units
	}
	d.team.run(&d.ph, units)
}

// projOut is the step buffer, viewed down to B rows, that block weight wi
// projects into.
func (d *Decoder) projOut(wi, B int) *tensor.Tensor {
	return [numBlockWeights]*batchBuf{&d.q, &d.k, &d.v, &d.att, &d.gate, &d.up, &d.mlp}[wi].rows(B)
}
