package govern

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"edgellm/internal/obsv"
)

// fullPlan is a plan with every rung expressible.
func fullPlan() Plan {
	return Plan{
		WindowSize: 4, MinWindow: 2,
		BudgetBits: 4, MinBits: 2,
		MaxSegments: 2,
		Batch:       4,
	}
}

// walk exhausts the ladder from p, returning the rung names in order.
func walk(p Plan) []string {
	var rungs []string
	for {
		next, rung, _, ok := p.next()
		if !ok {
			return rungs
		}
		rungs = append(rungs, rung.String())
		p = next
	}
}

// TestLadderOrder pins the fixed degradation order: window to its floor,
// then bits to theirs, then recompute, then batch to 1.
func TestLadderOrder(t *testing.T) {
	got := walk(fullPlan())
	want := []string{
		"shrink-window", "shrink-window", // 4→3→2
		"tighten-bits", "tighten-bits", // 4→3→2
		"recompute",                  // on, 2 segments
		"halve-batch", "halve-batch", // 4→2→1
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ladder = %v, want %v", got, want)
	}
}

// TestLadderSkipsUnavailableRungs: zero-valued knobs mark rungs a plan
// cannot express; the walk must jump straight past them.
func TestLadderSkipsUnavailableRungs(t *testing.T) {
	if got := walk(Plan{Batch: 4}); !reflect.DeepEqual(got, []string{"halve-batch", "halve-batch"}) {
		t.Fatalf("batch-only plan walked %v", got)
	}
	if got := walk(Plan{WindowSize: 2, Batch: 1}); !reflect.DeepEqual(got, []string{"shrink-window"}) {
		t.Fatalf("window-only plan walked %v", got)
	}
	// BudgetBits at (or under) the floor disables the bits rung entirely.
	if got := walk(Plan{BudgetBits: 1, Batch: 1}); len(got) != 0 {
		t.Fatalf("floor plan walked %v, want nothing", got)
	}
}

// TestLadderSegmentDoubling: with recompute already on, the recompute rung
// doubles segments up to MaxSegments.
func TestLadderSegmentDoubling(t *testing.T) {
	p := Plan{Recompute: true, Segments: 2, MaxSegments: 8, Batch: 1}
	got := walk(p)
	if !reflect.DeepEqual(got, []string{"recompute", "recompute"}) { // 2→4→8
		t.Fatalf("segment walk = %v", got)
	}
	next, _, detail, _ := p.next()
	if next.Segments != 4 || detail != "segments 2→4" {
		t.Fatalf("first doubling = %+v (%s)", next, detail)
	}
}

// TestAdmitStopsAtFirstFit: the governor applies exactly as many rungs as
// the estimate needs, not more.
func TestAdmitStopsAtFirstFit(t *testing.T) {
	g := New(Budget{MemoryBytes: 99})
	// Estimates walk 160 → 130 → 100 → 90: two window shrinks still miss
	// the 99-byte budget by one, so exactly one bits rung follows.
	est := func(p Plan) int64 { return int64(p.WindowSize)*30 + int64(p.BudgetBits)*10 }
	got := g.Admit("task", "admission", fullPlan(), est)
	if got.WindowSize != 2 || got.BudgetBits != 3 || got.Recompute || got.Batch != 4 {
		t.Fatalf("admitted plan = %+v", got)
	}
	ds := g.Decisions()
	if len(ds) != 3 {
		t.Fatalf("%d decisions, want 3: %+v", len(ds), ds)
	}
	for i, d := range ds {
		if d.Seq != i || d.Task != "task" || d.Trigger != "admission" {
			t.Fatalf("decision %d = %+v", i, d)
		}
	}
	if ds[2].Rung != "tighten-bits" || ds[2].AfterBytes > 99 {
		t.Fatalf("final decision = %+v", ds[2])
	}
}

// TestAdmitFloorUnmet: when even the ladder floor exceeds the budget, the
// floor plan is returned (degrade, never abort) and the shortfall is
// recorded.
func TestAdmitFloorUnmet(t *testing.T) {
	g := New(Budget{MemoryBytes: 10})
	got := g.Admit("hog", "admission", fullPlan(), func(Plan) int64 { return 1000 })
	floor := Plan{WindowSize: 2, MinWindow: 2, BudgetBits: 2, MinBits: 2,
		Recompute: true, Segments: 2, MaxSegments: 2, Batch: 1}
	if got != floor {
		t.Fatalf("floor plan = %+v, want %+v", got, floor)
	}
	rec := g.Record()
	if len(rec.UnmetTasks) != 1 || rec.UnmetTasks[0] != "hog" {
		t.Fatalf("unmet tasks = %v", rec.UnmetTasks)
	}
	if len(rec.Decisions) != 7 { // the full ladder was walked
		t.Fatalf("%d decisions, want 7", len(rec.Decisions))
	}
}

// TestAdmitDisabled: a nil governor and a zero budget are both inert.
func TestAdmitDisabled(t *testing.T) {
	p := fullPlan()
	var nilGov *Governor
	if got := nilGov.Admit("t", "admission", p, func(Plan) int64 { return 1 << 40 }); got != p {
		t.Fatalf("nil governor changed the plan: %+v", got)
	}
	g := New(Budget{})
	if got := g.Admit("t", "admission", p, func(Plan) int64 { return 1 << 40 }); got != p {
		t.Fatalf("zero-budget governor changed the plan: %+v", got)
	}
	if g.Enabled() || nilGov.Enabled() {
		t.Fatal("disabled governors report Enabled")
	}
	if nilGov.Decisions() != nil {
		t.Fatal("nil governor returned decisions")
	}
}

// TestAdmitDedupesIdenticalWalks: re-admitting the same task/plan (the
// pipeline's LM and MCQ passes, concurrent grid points under one label)
// must not duplicate decisions, and the surviving list must match a single
// walk regardless of interleaving.
func TestAdmitDedupesIdenticalWalks(t *testing.T) {
	est := func(p Plan) int64 { return int64(p.WindowSize) * 60 }

	ref := New(Budget{MemoryBytes: 130})
	ref.Admit("task", "admission", fullPlan(), est)
	want := ref.Decisions()

	g := New(Budget{MemoryBytes: 130})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.Admit("task", "admission", fullPlan(), est)
		}()
	}
	wg.Wait()
	if got := g.Decisions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent decisions = %+v, want %+v", got, want)
	}
}

// TestDecisionsSortedAcrossTasks: decisions come back ordered by
// (task, seq) no matter the append interleaving.
func TestDecisionsSortedAcrossTasks(t *testing.T) {
	g := New(Budget{MemoryBytes: 100})
	est := func(p Plan) int64 { return int64(p.Batch) * 50 }
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			g.Admit(fmt.Sprintf("task-%d", i), "admission", Plan{Batch: 8}, est)
		}(i)
	}
	wg.Wait()
	ds := g.Decisions()
	if len(ds) != 8 { // 4 tasks × 2 halvings (8→4→2)
		t.Fatalf("%d decisions, want 8", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Task > ds[i].Task ||
			(ds[i-1].Task == ds[i].Task && ds[i-1].Seq >= ds[i].Seq) {
			t.Fatalf("decisions out of order at %d: %+v then %+v", i, ds[i-1], ds[i])
		}
	}
}

// TestRecordMirrorsTelemetry: decisions and unmet budgets surface as
// govern.* counters on the global recorder.
func TestRecordMirrorsTelemetry(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	g := New(Budget{MemoryBytes: 10})
	g.Admit("hog", "admission", Plan{Batch: 4}, func(Plan) int64 { return 1000 })
	snap := rec.Snapshot()
	if snap.Counters["govern.decisions{rung=halve-batch}"] != 2 { // batch 4→2→1
		t.Fatalf("govern.decisions = %d, want 2 (keys: %v)",
			snap.Counters["govern.decisions{rung=halve-batch}"], snap.Counters)
	}
	if snap.Counters["govern.budget_unmet"] != 1 {
		t.Fatalf("govern.budget_unmet = %d, want 1", snap.Counters["govern.budget_unmet"])
	}
}
