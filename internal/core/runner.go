package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"edgellm/internal/govern"
	"edgellm/internal/obsv"
)

// Sizes collects every iteration-count knob of the experiment suite in one
// place, so the runner, the CLI, and the tests size runs consistently.
type Sizes struct {
	// Run sizes the method-comparison experiments (T1 and the ablations
	// that train).
	Run RunOpts
	// T2Iters, F2Iters, F3Iters size the remaining trained experiments.
	T2Iters, F2Iters, F3Iters int
}

// DefaultSizes returns the full-size configuration behind the recorded
// EXPERIMENTS.md numbers.
func DefaultSizes() Sizes {
	return Sizes{Run: DefaultRunOpts(), T2Iters: 300, F2Iters: 250, F3Iters: 300}
}

// QuickSizes shrinks every trained experiment for smoke runs.
func QuickSizes() Sizes {
	return Sizes{
		Run:     RunOpts{Iters: 30, MCQIters: 20, EvalBatches: 3, PretrainIters: 40},
		T2Iters: 30, F2Iters: 30, F3Iters: 30,
	}
}

// Experiment is one registered table/figure generator.
type Experiment struct {
	// ID matches the experiment index in DESIGN.md (T1..T3, F1..F7, A1..A7).
	ID string
	// Run regenerates the report at the given sizes. Implementations should
	// treat ctx as a stop request: returning early (with a partial report)
	// is fine, since RunAll discards results once the context is cancelled.
	Run func(ctx context.Context, s Sizes) *Report
}

// Experiments returns the ordered registry of every table, figure, and
// ablation. The order is the presentation order of EXPERIMENTS.md and the
// order RunAll reports results in, regardless of parallelism.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "T1", Run: func(ctx context.Context, s Sizes) *Report { return ExperimentT1(ctx, s.Run) }},
		{ID: "T2", Run: func(ctx context.Context, s Sizes) *Report { return ExperimentT2(ctx, s.T2Iters, s.Run.EvalBatches) }},
		{ID: "T3", Run: func(ctx context.Context, _ Sizes) *Report { return ExperimentT3(ctx) }},
		{ID: "F1", Run: func(ctx context.Context, _ Sizes) *Report { return ExperimentF1(ctx) }},
		{ID: "F2", Run: func(ctx context.Context, s Sizes) *Report { return ExperimentF2(ctx, s.F2Iters, s.Run.EvalBatches) }},
		{ID: "F3", Run: func(ctx context.Context, s Sizes) *Report { return ExperimentF3(ctx, s.F3Iters) }},
		{ID: "F4", Run: func(ctx context.Context, _ Sizes) *Report { return ExperimentF4(ctx) }},
		{ID: "F5", Run: func(ctx context.Context, _ Sizes) *Report { return ExperimentF5(ctx) }},
		{ID: "F6", Run: func(ctx context.Context, _ Sizes) *Report { return ExperimentF6(ctx) }},
		{ID: "F7", Run: func(ctx context.Context, _ Sizes) *Report { return ExperimentF7(ctx) }},
		{ID: "A1", Run: func(ctx context.Context, s Sizes) *Report {
			return AblationProbeMetric(ctx, s.F3Iters, s.Run.EvalBatches)
		}},
		{ID: "A2", Run: func(ctx context.Context, _ Sizes) *Report { return AblationPolicySearch(ctx) }},
		{ID: "A3", Run: func(ctx context.Context, s Sizes) *Report {
			return AblationWindowStrategy(ctx, s.F2Iters, s.Run.EvalBatches)
		}},
		{ID: "A4", Run: func(ctx context.Context, s Sizes) *Report {
			return AblationVotingMode(ctx, s.F2Iters, s.Run.EvalBatches)
		}},
		{ID: "A5", Run: func(ctx context.Context, _ Sizes) *Report { return AblationScheduleSearch(ctx) }},
		{ID: "A6", Run: func(ctx context.Context, _ Sizes) *Report { return AblationFusion(ctx) }},
		{ID: "A7", Run: func(ctx context.Context, s Sizes) *Report { return AblationRefine(ctx, s.F3Iters, s.Run.EvalBatches) }},
	}
}

// SuiteOpts configures one RunAll invocation.
type SuiteOpts struct {
	// Sizes sizes the trained experiments; the zero value means
	// DefaultSizes.
	Sizes Sizes
	// Parallel bounds the worker pool shared by experiment-level and
	// grid-level fan-out; values ≤ 1 run strictly sequentially on the
	// calling goroutine.
	Parallel int
	// Only optionally restricts the run to these experiment IDs (in
	// registry order); nil runs everything.
	Only []string
	// Inject, when non-nil, is called at the start of every experiment
	// with its context and id. A returned error or a panic becomes the
	// experiment's outcome — the fault-injection seam used by the tests and
	// the CLI's -fault mode. The context is the watchdog-derived one, so a
	// stall-mode injection blocks until the watchdog cancels it.
	Inject func(ctx context.Context, id string) error
	// Govern, when non-nil, enforces resource budgets over the suite: each
	// experiment runs under the governor's stage watchdog, and experiments
	// consult the governor (via the installed run state) to admit their
	// training plans against the memory budget. Nil runs ungoverned.
	Govern *govern.Governor
}

// RunAll regenerates the selected experiments, fanning independent
// experiments — and, inside them, independent grid points (LUC budgets,
// window sizes, device catalog entries) — across a bounded worker pool.
//
// Results are bit-identical to a sequential run at any parallelism: every
// task owns its models, schedulers, and RNGs (each deterministically
// derived from that task's seed, never shared across goroutines), and
// reports are assembled in registry order, so scheduling cannot influence
// either the numbers or their order.
//
// RunAll is fault-isolated: a panic inside one experiment (anywhere in its
// grid fan-out included) is recovered and converted into a degraded,
// error-annotated report for that experiment while every other experiment
// completes normally. Each experiment runs once: its output depends only
// on its config and seed, so a second attempt would repeat the failure.
// RunAll returns a non-nil error only for invalid options or a cancelled
// context.
func RunAll(ctx context.Context, opts SuiteOpts) ([]*Report, error) {
	sizes := opts.Sizes
	if sizes == (Sizes{}) {
		sizes = DefaultSizes()
	}

	selected := Experiments()
	if opts.Only != nil {
		want := make(map[string]bool, len(opts.Only))
		for _, id := range opts.Only {
			want[id] = true
		}
		var filtered []Experiment
		for _, e := range selected {
			if want[e.ID] {
				filtered = append(filtered, e)
				delete(want, e.ID)
			}
		}
		for id := range want {
			return nil, fmt.Errorf("core: unknown experiment id %q", id)
		}
		selected = filtered
	}

	run := &runState{pool: newWorkPool(opts.Parallel), ctx: ctx, gov: opts.Govern}
	prev := activeRun.Swap(run)
	defer activeRun.Store(prev)

	suite := obsv.StartSpan("suite.run", obsv.L("parallel", fmt.Sprint(opts.Parallel)))
	defer suite.EndWith(map[string]float64{"experiments": float64(len(selected))})
	// Experiment spans hang off the suite span through the context, so the
	// whole fan-out renders as one tree in the trace viewer.
	ctx = obsv.ContextWithSpan(ctx, suite)

	reports := make([]*Report, len(selected))
	parallelFor(len(selected), func(i int) {
		reports[i] = runTask(ctx, selected[i], sizes, opts)
		obsv.Add("suite.experiments_done", 1)
	})
	if err := ctx.Err(); err != nil {
		// Suite deadline or cancellation: in-flight tasks have drained
		// (parallelFor waits), so return what completed, with every unrun
		// experiment visible as a skipped row instead of silently missing.
		for i, r := range reports {
			if r == nil {
				reports[i] = skippedReport(selected[i].ID, err)
				obsv.Add("suite.tasks_skipped", 1)
			}
		}
		return reports, err
	}
	return reports, nil
}

// runTask runs one experiment and always produces a report: the
// experiment's own on success, a degraded error-annotated one on failure.
func runTask(ctx context.Context, e Experiment, sizes Sizes, opts SuiteOpts) *Report {
	rep, err := runAttempt(ctx, e, sizes, opts)
	if err != nil {
		obsv.Add("suite.task_failures", 1)
		return failedReport(e.ID, err)
	}
	return rep
}

// runAttempt executes an experiment, converting any panic — from the
// experiment body or re-propagated out of its grid-level parallelFor — into
// an error. With a governor installed, the experiment runs under a stage
// watchdog: its context is cancelled when the stage deadline or the
// progress-heartbeat bound fires, and the resulting *StallError becomes
// the outcome.
func runAttempt(ctx context.Context, e Experiment, sizes Sizes, opts SuiteOpts) (rep *Report, err error) {
	var wd *govern.Watchdog
	if opts.Govern != nil {
		ctx, wd = opts.Govern.Budget.Watch(ctx, e.ID)
		defer wd.Stop()
	}
	defer func() {
		if r := recover(); r != nil {
			obsv.Add("suite.panics_recovered", 1)
			rep = nil
			if tp, ok := r.(*taskPanic); ok {
				err = &PanicError{ID: e.ID, Value: tp.val, Stack: tp.stack}
			} else {
				err = &PanicError{ID: e.ID, Value: r, Stack: debug.Stack()}
			}
		}
		// A fired watchdog outranks whatever error the unwinding produced:
		// the stall is the root cause.
		if serr := wd.Err(); serr != nil {
			obsv.Add("suite.stalls_killed", 1)
			rep, err = nil, serr
		}
	}()
	// Experiments run concurrently, so each gets its own trace track
	// (complete events on one track must not overlap in time).
	sp := obsv.SpanFromContext(ctx).ChildTrack("experiment", obsv.L("id", e.ID))
	defer sp.End()
	if opts.Inject != nil {
		if err := opts.Inject(ctx, e.ID); err != nil {
			return nil, err
		}
	}
	rep = e.Run(obsv.ContextWithSpan(ctx, sp), sizes)
	if rep == nil {
		return nil, fmt.Errorf("core: experiment %s returned no report", e.ID)
	}
	return rep, nil
}

// PanicError is a recovered panic from an experiment task, carrying the
// panic value and the stack of the panicking goroutine.
type PanicError struct {
	// ID is the experiment the panic was recovered from.
	ID string
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("core: experiment %s panicked: %v", e.ID, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. a
// *train.DivergenceError), so errors.As sees through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// failedReport is the degraded row RunAll emits for an experiment that
// failed: the suite's output stays complete and ordered, with the failure
// visible instead of silently missing.
func failedReport(id string, err error) *Report {
	r := &Report{
		ID:     id,
		Title:  "FAILED (degraded result)",
		Header: []string{"Status", "Error"},
		Err:    err.Error(),
	}
	r.AddRow("failed", firstLine(err.Error()))
	return r
}

// skippedReport is the row for an experiment that never ran because the
// suite stopped first (deadline or cancellation). It counts as failed —
// the suite's output is incomplete — but is labeled distinctly so a
// partial Report makes clear which rows were never attempted.
func skippedReport(id string, cause error) *Report {
	r := &Report{
		ID:     id,
		Title:  "SKIPPED (suite stopped)",
		Header: []string{"Status", "Reason"},
		Err:    "skipped: " + cause.Error(),
	}
	r.AddRow("skipped", firstLine(cause.Error()))
	return r
}

// --- bounded worker pool -----------------------------------------------------

// workPool is a weighted semaphore over worker slots. It is shared between
// the experiment-level fan-out and every grid-level fan-out inside the
// experiments, so total concurrency stays bounded no matter how the two
// levels nest.
type workPool struct{ slots chan struct{} }

// newWorkPool sizes the pool so that at most `parallel` tasks run at once:
// parallel−1 pool goroutines plus the caller running tasks inline. A pool
// of ≤ 1 has no slots, which makes parallelFor purely sequential.
func newWorkPool(parallel int) *workPool {
	if parallel <= 1 {
		return nil
	}
	return &workPool{slots: make(chan struct{}, parallel-1)}
}

// runState is the context a running RunAll installs for every parallelFor
// underneath it: the shared worker pool, the suite's cancellation context,
// and the resource governor (nil when ungoverned).
type runState struct {
	pool *workPool
	ctx  context.Context
	gov  *govern.Governor
}

// activeGovernor returns the governor installed by the running RunAll, or
// nil. Pipelines and methods consult it at admission points without
// threading it through every constructor.
func activeGovernor() *govern.Governor {
	if r := activeRun.Load(); r != nil {
		return r.gov
	}
	return nil
}

// activeRun is the state installed by the currently running RunAll; nil
// means all parallelFor calls execute inline without cancellation checks.
// Experiments call parallelFor unconditionally and inherit whatever budget
// and context the runner installed.
var activeRun atomic.Pointer[runState]

// cancelled reports whether the installed run's context is done.
func (r *runState) cancelled() bool {
	return r != nil && r.ctx != nil && r.ctx.Err() != nil
}

// taskPanic carries a panic recovered on a pool goroutine back to the
// parallelFor caller, where it is re-thrown so the per-task recovery in
// runAttempt (or a test) can handle it on the right stack.
type taskPanic struct {
	val   any
	stack []byte
}

// parallelFor runs fn(0..n-1), each call exactly once, unless the suite
// context is cancelled or a task panics — both stop new tasks from
// starting. When a pool is installed, tasks are offloaded to worker
// goroutines while slots are available and run inline on the caller
// otherwise — the inline fallback is what makes nesting deadlock-free: a
// parent waiting on its grid always makes progress by running grid points
// itself.
//
// A panic in any task (pooled or inline) is captured, the remaining tasks
// are skipped, all in-flight workers are drained, and the first panic is
// re-thrown on the caller as a *taskPanic — so a crashing grid point takes
// down its experiment, never the process or an unrelated worker.
//
// Callers must make fn(i) touch only per-i state (or read-only shared
// state); results land in slot i of a pre-sized slice, so output order
// never depends on timing.
func parallelFor(n int, fn func(i int)) {
	run := activeRun.Load()
	var mu sync.Mutex
	var first *taskPanic
	capture := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if first == nil {
					first = &taskPanic{val: r, stack: debug.Stack()}
				}
				mu.Unlock()
			}
		}()
		fn(i)
	}
	stopped := func() bool {
		if run.cancelled() {
			return true
		}
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}

	if run == nil || run.pool == nil || n <= 1 {
		// Sequential: fn runs on the caller's stack, so a panic propagates
		// naturally to the per-experiment recovery without capture machinery.
		for i := 0; i < n; i++ {
			if run.cancelled() {
				return
			}
			fn(i)
		}
		return
	}
	pool := run.pool
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if stopped() {
			break
		}
		select {
		case pool.slots <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-pool.slots }()
				capture(i)
			}(i)
		default:
			capture(i)
		}
	}
	wg.Wait()
	if first != nil {
		panic(first)
	}
}
