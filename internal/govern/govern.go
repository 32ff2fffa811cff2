// Package govern enforces hard resource envelopes on a run: a memory
// budget in bytes and per-stage deadlines. Edge-LLM's premise is a fixed
// device envelope, and the rest of the repo *measures* memory and latency;
// this package is the piece that *enforces* them, by deterministic graceful
// degradation instead of OOM or abort.
//
// The Governor holds the budget and walks a fixed degradation ladder
// whenever an admission estimate says a configuration (or an upcoming
// step) would exceed it:
//
//  1. shrink the adaptive-tuning window (down to Plan.MinWindow),
//  2. tighten the LUC bit budget (down to Plan.MinBits),
//  3. switch the backprop span to checkpointed recompute
//     (then keep doubling segments, up to Plan.MaxSegments),
//  4. halve the batch (down to 1).
//
// One notch is applied at a time, the estimate is recomputed, and the walk
// stops at the first plan that fits. Rungs a plan cannot express (no
// window, no compression stage, recompute unavailable) are skipped. If the
// ladder floor still exceeds the budget the run proceeds at the floor —
// never aborts — and the shortfall is recorded.
//
// Determinism: every rung decision is a pure function of the analytic
// admission estimate (train.EstimateMemory-style accounting plus the
// deterministic optimizer-state accumulation schedule), never of live
// allocator state (the tensor.Pool is shared by every experiment running at
// that instant), so the rung sequence and the resulting model bytes are
// identical at any GOMAXPROCS and on every run of the same configuration.
//
// Every decision is recorded with its trigger and before/after bytes,
// exported in the run manifest (obsv.GovernRecord) and emitted as
// govern.* telemetry.
package govern

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"edgellm/internal/obsv"
)

// Budget is the hard resource envelope a Governor enforces.
type Budget struct {
	// MemoryBytes is the hard memory budget for one experiment's training
	// footprint (analytic accounting); 0 disables memory governance.
	MemoryBytes int64
	// StageTimeout is the wall-clock deadline for one experiment;
	// 0 disables the deadline.
	StageTimeout time.Duration
	// HeartbeatTimeout bounds the silence between progress heartbeats
	// (Trainer.Step beats once per step). It only arms after the first
	// beat, so analytic stages that never train are not killed by it.
	// 0 derives StageTimeout/2 when a stage timeout is set.
	HeartbeatTimeout time.Duration
}

// Rung is one level of the degradation ladder, in ladder order.
type Rung int

const (
	// RungShrinkWindow narrows the adaptive-tuning window by one block.
	RungShrinkWindow Rung = iota
	// RungTightenBits lowers the LUC average-bits budget by one bit.
	RungTightenBits
	// RungRecompute switches the backprop span to checkpointed recompute
	// (or doubles the recompute segment count when already on).
	RungRecompute
	// RungHalveBatch halves the batch size.
	RungHalveBatch
)

// String names the rung for decisions and telemetry labels.
func (r Rung) String() string {
	switch r {
	case RungShrinkWindow:
		return "shrink-window"
	case RungTightenBits:
		return "tighten-bits"
	case RungRecompute:
		return "recompute"
	case RungHalveBatch:
		return "halve-batch"
	default:
		return fmt.Sprintf("rung(%d)", int(r))
	}
}

// Plan is a degradable resource configuration: the knobs the ladder may
// turn, plus their floors. Zero-valued knobs mark rungs the plan cannot
// express (e.g. WindowSize 0 for full-depth methods skips the window
// rung; MaxSegments 0 marks recompute as unavailable).
type Plan struct {
	// WindowSize is the adaptive-tuning window (0: not windowed).
	WindowSize int
	// MinWindow is the shrink floor (default 1). Windowed plans that can
	// recompute should keep MinWindow ≥ 2 so the recompute rung stays
	// reachable and meaningful.
	MinWindow int
	// BudgetBits is the LUC average-effective-bits budget (0: no
	// compression stage to tighten).
	BudgetBits float64
	// MinBits is the tightening floor (default 1).
	MinBits float64
	// Recompute marks checkpointed recompute as already active.
	Recompute bool
	// Segments is the recompute segment count: 0 until Recompute turns on
	// (with at least 2), so a trainer reads it as-is (≤ 1: one segment).
	Segments int
	// MaxSegments bounds segment doubling; 0 marks the recompute rung
	// unavailable. Windowed plans use 2 (split the window in half).
	MaxSegments int
	// Batch is the batch size.
	Batch int
}

func (p Plan) minWindow() int {
	if p.MinWindow > 0 {
		return p.MinWindow
	}
	return 1
}

func (p Plan) minBits() float64 {
	if p.MinBits > 0 {
		return p.MinBits
	}
	return 1
}

// next returns the plan one notch down the ladder, with the rung applied
// and a human-readable detail. ok is false at the ladder floor.
func (p Plan) next() (out Plan, rung Rung, detail string, ok bool) {
	if p.WindowSize > p.minWindow() {
		out = p
		out.WindowSize--
		return out, RungShrinkWindow, fmt.Sprintf("window %d→%d", p.WindowSize, out.WindowSize), true
	}
	if p.BudgetBits > p.minBits() {
		out = p
		out.BudgetBits = p.BudgetBits - 1
		if out.BudgetBits < p.minBits() {
			out.BudgetBits = p.minBits()
		}
		return out, RungTightenBits, fmt.Sprintf("bits %g→%g", p.BudgetBits, out.BudgetBits), true
	}
	if p.MaxSegments >= 2 {
		if !p.Recompute {
			out = p
			out.Recompute = true
			if out.Segments < 2 {
				out.Segments = 2
			}
			return out, RungRecompute, fmt.Sprintf("recompute on (%d segments)", out.Segments), true
		}
		if p.Segments*2 <= p.MaxSegments {
			out = p
			out.Segments = p.Segments * 2
			return out, RungRecompute, fmt.Sprintf("segments %d→%d", p.Segments, out.Segments), true
		}
	}
	if p.Batch > 1 {
		out = p
		out.Batch = p.Batch / 2
		return out, RungHalveBatch, fmt.Sprintf("batch %d→%d", p.Batch, out.Batch), true
	}
	return p, 0, "", false
}

// Estimator returns the analytic peak memory (bytes) of running under a
// plan. It must be a pure function of the plan and other deterministic
// inputs — never of live allocator state — or the ladder loses its
// byte-determinism guarantee.
type Estimator func(Plan) int64

// Governor enforces a Budget over a suite run. All methods are safe for
// concurrent use by parallel experiment tasks; a nil *Governor is inert.
type Governor struct {
	Budget Budget

	mu        sync.Mutex
	decisions []obsv.GovernDecision
	seq       map[string]int
	seen      map[string]bool
	unmet     map[string]bool
}

// New returns a Governor enforcing b.
func New(b Budget) *Governor {
	return &Governor{Budget: b, seq: map[string]int{}, seen: map[string]bool{}, unmet: map[string]bool{}}
}

// Enabled reports whether memory governance is active (nil-safe).
func (g *Governor) Enabled() bool {
	return g != nil && g.Budget.MemoryBytes > 0
}

// Admit walks plan down the degradation ladder until est(plan) fits the
// memory budget, recording one Decision per rung under the given task
// label and trigger ("admission", or "step@N" for mid-run re-admissions).
// If even the ladder floor exceeds the budget, the floor plan is returned
// anyway — degradation, never abort — and the shortfall is recorded as
// govern.budget_unmet. With governance disabled the plan is returned
// unchanged.
func (g *Governor) Admit(task, trigger string, plan Plan, est Estimator) Plan {
	if !g.Enabled() {
		return plan
	}
	budget := g.Budget.MemoryBytes
	for {
		before := est(plan)
		if before <= budget {
			return plan
		}
		next, rung, detail, ok := plan.next()
		if !ok {
			g.recordUnmet(task, before)
			return plan
		}
		g.record(obsv.GovernDecision{
			Task:        task,
			Trigger:     trigger,
			Rung:        rung.String(),
			Detail:      detail,
			BeforeBytes: before,
			AfterBytes:  est(next),
			BudgetBytes: budget,
		})
		plan = next
	}
}

// record appends one decision, assigning the task's next sequence number,
// and mirrors it to govern.* telemetry.
//
// Identical decisions (same task, trigger, rung, detail, and byte deltas)
// are recorded once: admission is a pure function of the task's plan, so
// re-admitting the same configuration — concurrent method runs under one
// label, or the pipeline's LM and MCQ passes — replays the same walk, and
// deduplicating it keeps the decision list independent of goroutine
// interleaving.
func (g *Governor) record(d obsv.GovernDecision) {
	key := fmt.Sprintf("%s|%s|%s|%s|%d|%d", d.Task, d.Trigger, d.Rung, d.Detail, d.BeforeBytes, d.AfterBytes)
	g.mu.Lock()
	if g.seen[key] {
		g.mu.Unlock()
		return
	}
	g.seen[key] = true
	d.Seq = g.seq[d.Task]
	g.seq[d.Task] = d.Seq + 1
	g.decisions = append(g.decisions, d)
	g.mu.Unlock()
	if obs := obsv.Global(); obs != nil {
		obs.Add("govern.decisions", 1, obsv.L("rung", d.Rung))
		obs.Observe("govern.degraded_bytes", float64(d.BeforeBytes-d.AfterBytes))
	}
}

// recordUnmet notes that a task's ladder floor still exceeds the budget.
func (g *Governor) recordUnmet(task string, floorBytes int64) {
	g.mu.Lock()
	first := !g.unmet[task]
	g.unmet[task] = true
	g.mu.Unlock()
	if first {
		if obs := obsv.Global(); obs != nil {
			obs.Add("govern.budget_unmet", 1)
			obs.SetGauge("govern.unmet_floor_bytes", float64(floorBytes), obsv.L("task", task))
		}
	}
}

// Decisions returns every recorded decision sorted by (Task, Seq) — a
// deterministic order regardless of how parallel tasks interleaved their
// appends.
func (g *Governor) Decisions() []obsv.GovernDecision {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	out := make([]obsv.GovernDecision, len(g.decisions))
	copy(out, g.decisions)
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Task != out[j].Task {
			return out[i].Task < out[j].Task
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// Record assembles the manifest-ready summary of everything the governor
// did this run.
func (g *Governor) Record() obsv.GovernRecord {
	if g == nil {
		return obsv.GovernRecord{}
	}
	rec := obsv.GovernRecord{
		BudgetBytes:    g.Budget.MemoryBytes,
		StageTimeoutMS: float64(g.Budget.StageTimeout) / float64(time.Millisecond),
		Decisions:      g.Decisions(),
	}
	g.mu.Lock()
	for task := range g.unmet {
		rec.UnmetTasks = append(rec.UnmetTasks, task)
	}
	g.mu.Unlock()
	sort.Strings(rec.UnmetTasks)
	return rec
}
