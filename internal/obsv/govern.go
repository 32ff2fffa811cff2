package obsv

import "time"

// KindGovern is the JSONL kind of a resource-governor record (one per
// governed run, emitted at teardown like the summary).
const KindGovern = "govern"

// GovernDecision is one degradation-ladder step taken by the resource
// governor: which rung fired, for which task, what triggered it, and the
// analytic before/after bytes against the budget. The schema lives here
// (not in internal/govern) so the JSONL event stream stays defined by one
// package; govern fills these in.
type GovernDecision struct {
	// Task labels the governed unit (method or pipeline configuration).
	Task string `json:"task"`
	// Seq orders decisions within a task (0-based).
	Seq int `json:"seq"`
	// Trigger says when the decision was made: "admission" for the
	// pre-run estimate, "step@N" for a mid-run pre-step estimate.
	Trigger string `json:"trigger"`
	// Rung is the ladder rung that fired (shrink-window, tighten-bits,
	// recompute, halve-batch).
	Rung string `json:"rung"`
	// Detail is the human-readable knob change, e.g. "window 4→3".
	Detail string `json:"detail"`
	// BeforeBytes/AfterBytes are the analytic estimates around the rung.
	BeforeBytes int64 `json:"before_bytes"`
	AfterBytes  int64 `json:"after_bytes"`
	// BudgetBytes is the budget the estimate was compared against.
	BudgetBytes int64 `json:"budget_bytes"`
}

// GovernRecord summarises a governed run for the manifest/metrics stream:
// the budget, every decision taken, tasks whose ladder floor still
// exceeded the budget.
type GovernRecord struct {
	BudgetBytes    int64            `json:"budget_bytes"`
	StageTimeoutMS float64          `json:"stage_timeout_ms,omitempty"`
	Decisions      []GovernDecision `json:"decisions"`
	UnmetTasks     []string         `json:"unmet_tasks,omitempty"`
}

// EmitGovern writes the governor record as one JSONL line if an emitter
// is attached (nil-safe, like every Recorder method).
func (r *Recorder) EmitGovern(g GovernRecord) {
	if r == nil {
		return
	}
	if e := r.emitter.Load(); e != nil {
		e.Emit(Event{
			TimeUnixNano: time.Now().UnixNano(),
			Kind:         KindGovern,
			Govern:       &g,
		})
	}
}
