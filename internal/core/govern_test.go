package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	ag "edgellm/internal/autograd"
	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// installGovernor installs a run state carrying only a governor, as RunAll
// would, so pipelines built directly in tests admit against it.
func installGovernor(budget int64) (*govern.Governor, func()) {
	gov := govern.New(govern.Budget{MemoryBytes: budget})
	prev := activeRun.Swap(&runState{gov: gov})
	return gov, func() { activeRun.Store(prev) }
}

// governedCfg is quickCfg with a full-depth window so every ladder rung
// (window, bits, recompute, batch) is expressible.
func governedCfg() Config {
	cfg := quickCfg()
	cfg.WindowSize = 3
	return cfg
}

// admissionBytes prices cfg's un-degraded plan through the same estimator
// governPipeline admits against.
func admissionBytes(cfg Config) int64 {
	return admissionEstimator(cfg)(govern.Plan{
		WindowSize: cfg.WindowSize, BudgetBits: cfg.BudgetBits,
		MaxSegments: 2, Batch: cfg.Batch,
	})
}

// paramBits snapshots every model parameter bitwise.
func paramBits(m *nn.Model) [][]uint32 {
	var out [][]uint32
	for _, p := range m.Params() {
		bits := make([]uint32, len(p.Value.Data.Data))
		for i, v := range p.Value.Data.Data {
			bits[i] = math.Float32bits(v)
		}
		out = append(out, bits)
	}
	return out
}

// runGoverned builds, compresses, and tunes one governed pipeline under
// the given budget and GOMAXPROCS, returning the governor's decision log,
// the admitted plan, and the final parameter bits.
func runGoverned(t *testing.T, budget int64, procs, iters int) ([]obsv.GovernDecision, govern.Plan, [][]uint32) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	gov, undo := installGovernor(budget)
	defer undo()

	cfg := governedCfg()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	task := quickTask()
	flat := calibSequences(task.Train, p.Cfg.Batch, p.Cfg.Seq)
	if err := p.Compress(flat); err != nil {
		t.Fatal(err)
	}
	p.Tune(task.Train, iters)
	return gov.Decisions(), p.GovernedPlan(), paramBits(p.Model)
}

// TestGovernedAdmissionDegradesPlan: a budget below the un-degraded
// estimate forces admission rungs, the degraded knobs land in the built
// pipeline's config, and an impossible budget still proceeds (at the
// ladder floor) with the shortfall recorded — degradation, never abort.
func TestGovernedAdmissionDegradesPlan(t *testing.T) {
	cfg := governedCfg()
	full := admissionBytes(cfg)

	gov, undo := installGovernor(full / 2)
	p, err := New(cfg)
	undo()
	if err != nil {
		t.Fatal(err)
	}
	if p.gstate == nil {
		t.Fatal("pipeline not governed under an installed governor")
	}
	ds := gov.Decisions()
	if len(ds) == 0 {
		t.Fatalf("no decisions at half the un-degraded estimate (%d bytes)", full)
	}
	pl := p.GovernedPlan()
	if p.Cfg.WindowSize != pl.WindowSize || p.Cfg.BudgetBits != pl.BudgetBits || p.Cfg.Batch != pl.Batch {
		t.Fatalf("admitted plan %+v not applied to config (window %d, bits %g, batch %d)",
			pl, p.Cfg.WindowSize, p.Cfg.BudgetBits, p.Cfg.Batch)
	}
	degraded := pl.WindowSize < cfg.WindowSize || pl.BudgetBits < cfg.BudgetBits ||
		pl.Recompute || pl.Batch < cfg.Batch
	if !degraded {
		t.Fatalf("half budget admitted the un-degraded plan: %+v", pl)
	}

	// Impossible budget: floor plan, run proceeds, shortfall recorded.
	gov, undo = installGovernor(1)
	p, err = New(cfg)
	undo()
	if err != nil {
		t.Fatalf("floor admission must not abort construction: %v", err)
	}
	pl = p.GovernedPlan()
	if pl.Batch != 1 || !pl.Recompute {
		t.Fatalf("1-byte budget did not reach the ladder floor: %+v", pl)
	}
	// The table prices the tape the governor admitted: one segment.
	if got, want := p.MemorySpec().TapeBlocks, tuningSpec(p.Cfg, pl).TapeBlocks; got != want {
		t.Fatalf("table tapes %d blocks on the recompute rung, admission %d", got, want)
	}
	if rec := gov.Record(); len(rec.UnmetTasks) != 1 {
		t.Fatalf("unmet floor not recorded: %+v", rec.UnmetTasks)
	}
}

// TestGovernedDeterministicAcrossGOMAXPROCS is the tentpole's determinism
// acceptance: the same budget yields the identical rung sequence and a
// byte-identical tuned model at GOMAXPROCS 1 and N, because every rung
// decision is a pure function of analytic estimates.
func TestGovernedDeterministicAcrossGOMAXPROCS(t *testing.T) {
	const iters = 8
	budget := admissionBytes(governedCfg()) * 3 / 4

	ds1, pl1, params1 := runGoverned(t, budget, 1, iters)
	dsN, plN, paramsN := runGoverned(t, budget, runtime.NumCPU(), iters)

	if len(ds1) == 0 {
		t.Fatal("budget produced no decisions; test exercises nothing")
	}
	if !reflect.DeepEqual(ds1, dsN) {
		t.Fatalf("rung sequences diverge across GOMAXPROCS:\n1: %+v\nN: %+v", ds1, dsN)
	}
	if pl1 != plN {
		t.Fatalf("admitted plans diverge: %+v vs %+v", pl1, plN)
	}
	for p := range params1 {
		for i := range params1[p] {
			if params1[p][i] != paramsN[p][i] {
				t.Fatalf("param %d element %d differs across GOMAXPROCS", p, i)
			}
		}
	}
}

// TestGovernedMidRunRungsAreDeterministic: under an exact-fit budget,
// optimizer-state accumulation across visited windows fires mid-run
// (step@N) rungs during Pipeline.Tune, and two live runs of the same
// configuration record the same rung sequence and end on the same plan.
func TestGovernedMidRunRungsAreDeterministic(t *testing.T) {
	const iters = 8
	cfg := governedCfg()
	// Exact-fit budget: admission passes clean, then optimizer-state
	// accumulation across visited windows forces mid-run (step@N) rungs.
	budget := admissionBytes(cfg)
	task := quickTask()

	run := func() ([]obsv.GovernDecision, govern.Plan) {
		gov, undo := installGovernor(budget)
		defer undo()
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Compress(calibSequences(task.Train, p.Cfg.Batch, p.Cfg.Seq)); err != nil {
			t.Fatal(err)
		}
		p.Tune(task.Train, iters)
		return gov.Decisions(), p.GovernedPlan()
	}
	ds1, pl1 := run()
	ds2, pl2 := run()

	stepRungs := 0
	for _, d := range ds1 {
		if strings.HasPrefix(d.Trigger, "step@") {
			stepRungs++
		}
	}
	if stepRungs == 0 {
		t.Fatal("no mid-run rungs fired; the exact-fit budget exercises nothing")
	}
	if !reflect.DeepEqual(ds1, ds2) {
		t.Fatalf("rung sequences diverge between two live runs:\n1: %+v\n2: %+v", ds1, ds2)
	}
	if pl1 != pl2 {
		t.Fatalf("admitted plans diverge: %+v vs %+v", pl1, pl2)
	}
}

// TestRunAllGovernedParallelDeterministic: the suite-level guarantee — a
// governed parallel run is byte-identical to a governed sequential run, in
// both the reports and the governor's decision log.
func TestRunAllGovernedParallelDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains several pipelines")
	}
	only := []string{"F2"}
	budget := admissionBytes(DefaultConfig()) / 2

	run := func(parallel int) ([]*Report, []obsv.GovernDecision) {
		gov := govern.New(govern.Budget{MemoryBytes: budget})
		reports, err := RunAll(context.Background(), SuiteOpts{
			Sizes: tinySizes(), Parallel: parallel, Only: only, Govern: gov,
		})
		if err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		return reports, gov.Decisions()
	}

	seqRep, seqDec := run(1)
	parRep, parDec := run(4)

	if len(seqDec) == 0 {
		t.Fatal("governed suite recorded no decisions; budget too loose to test")
	}
	if !reflect.DeepEqual(seqDec, parDec) {
		t.Fatalf("decision logs diverge:\nseq: %+v\npar: %+v", seqDec, parDec)
	}
	if a, b := renderAll(seqRep), renderAll(parRep); a != b {
		t.Fatalf("governed reports diverge:\n--- sequential ---\n%s\n--- parallel ---\n%s", a, b)
	}
}

// TestRunAllStallWatchdogKillsHungRow: an injected stall must be killed by
// the stage deadline, degrade only its own row, and be counted — the other
// experiments complete normally and the suite returns no error.
func TestRunAllStallWatchdogKillsHungRow(t *testing.T) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	inj, err := fault.ParseSpec("stall=F1")
	if err != nil {
		t.Fatal(err)
	}
	gov := govern.New(govern.Budget{StageTimeout: 200 * time.Millisecond})
	start := time.Now()
	reports, err := RunAll(context.Background(), SuiteOpts{
		Sizes: tinySizes(), Parallel: 2, Only: analyticOnly,
		Inject: inj.Hook, Govern: gov,
	})
	if err != nil {
		t.Fatalf("a killed stage must not fail the suite: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("suite took %s; watchdog did not bound the stall", elapsed)
	}
	for _, r := range reports {
		if r.ID == "F1" {
			if !r.Failed() || !strings.Contains(r.Err, "stalled") {
				t.Fatalf("stalled row not degraded with a stall error: %+v", r)
			}
			if !strings.Contains(r.Err, "stage-deadline") {
				t.Fatalf("stall error %q does not name the fired bound", r.Err)
			}
		} else if r.Failed() {
			t.Fatalf("healthy experiment %s degraded: %s", r.ID, r.Err)
		}
	}
	snap := rec.Snapshot()
	if snap.Counters["suite.stalls_killed"] != 1 {
		t.Fatalf("suite.stalls_killed = %d, want 1", snap.Counters["suite.stalls_killed"])
	}
}

// TestRunAllSuiteTimeoutPartialReport: when the whole-suite deadline fires,
// RunAll drains in-flight work, reports what completed, renders never-run
// experiments as SKIPPED rows, and returns the deadline error (the CLI's
// non-zero exit).
func TestRunAllSuiteTimeoutPartialReport(t *testing.T) {
	inj, err := fault.ParseSpec("stall=T3")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	reports, err := RunAll(ctx, SuiteOpts{
		Sizes: tinySizes(), Parallel: 1, Only: analyticOnly,
		Inject: inj.Hook,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if len(reports) != len(analyticOnly) {
		t.Fatalf("%d reports, want %d (partial report must keep every row)", len(reports), len(analyticOnly))
	}
	if !reports[0].Failed() || !strings.Contains(reports[0].Err, "injected stall") {
		t.Fatalf("stalled first row not degraded: %+v", reports[0])
	}
	for _, r := range reports[1:] {
		if r.Title != "SKIPPED (suite stopped)" || !r.Failed() {
			t.Fatalf("never-run experiment %s not rendered as skipped: %+v", r.ID, r)
		}
		if !strings.Contains(r.Err, "skipped") {
			t.Fatalf("skipped row %s error %q lacks the skip marker", r.ID, r.Err)
		}
	}
}

// crashOpt panics on its first update, standing in for any mid-step crash.
type crashOpt struct{}

func (crashOpt) Step([]nn.NamedParam, float32) { panic("injected optimizer crash") }

// TestRunAllPanicLeavesPoolBalanced: a panic thrown while a training
// step's pooled tape is live must not strand arena bytes — the trainer's
// recovery releases the tape, the runner's recovery degrades the row, and
// bytes-in-use returns to the pre-task level.
func TestRunAllPanicLeavesPoolBalanced(t *testing.T) {
	pool := tensor.NewPool()
	ag.SetPool(pool)
	defer ag.SetPool(nil)
	baseline := pool.Stats().BytesInUse

	inputs := [][]int{{1, 2, 3, 4, 5, 6}}
	targets := []int{2, 3, 4, 5, 6, 7}
	reports, err := RunAll(context.Background(), SuiteOpts{
		Sizes: tinySizes(), Parallel: 1, Only: []string{"T3"},
		Inject: func(context.Context, string) error {
			// Recreate the failure shape inside the experiment: a training
			// step that panics mid-update with its pooled tape still live.
			m := nn.NewModel(quickCfg().Model, tensor.NewRNG(5))
			tr := train.NewTrainer(crashOpt{}, 0.01, 1.0)
			tr.Step(m, ag.CrossEntropy(m.Logits(inputs), targets, -1))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Failed() || !strings.Contains(reports[0].Err, "injected optimizer crash") {
		t.Fatalf("panicking attempt not degraded: %+v", reports[0])
	}
	if got := pool.Stats().BytesInUse; got != baseline {
		t.Fatalf("pool bytes-in-use after panic = %d, want pre-task level %d", got, baseline)
	}
}
