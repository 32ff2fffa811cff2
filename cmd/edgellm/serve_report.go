package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"edgellm/internal/core"
	"edgellm/internal/obsv"
	"edgellm/internal/serve"
)

// cmdServeReport analyses a serving access log (`serve -access-log`): it
// replays the JSONL records into a fresh recorder and prints a per-tenant
// latency report plus, with -slo, offline SLO attainment through the same
// grammar and the same obsv.SLOObjective.Status that serve -slo reports on
// /statusz. -strict turns data-quality problems (malformed lines, duplicate
// request IDs) and violated objectives into a non-zero exit, which is how
// CI validates a chaos soak's log.
func cmdServeReport(args []string) error {
	fs := flag.NewFlagSet("telemetry serve-report", flag.ExitOnError)
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	sloSpec := fs.String("slo", "", `offline SLO attainment, same grammar as serve -slo (e.g. "p99_ttft_ms=500,availability=0.999")`)
	strict := fs.Bool("strict", false, "fail on malformed lines or duplicate request IDs instead of warning, and on a violated -slo objective")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: edgellm telemetry serve-report [-slo spec] [-strict] [-markdown] <access.jsonl>")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("serve-report: want exactly one access log, got %d args", fs.NArg())
	}
	path := fs.Arg(0)

	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, readErr := serve.ReadAccessLog(f)
	if readErr != nil {
		var mal *serve.MalformedRecordError
		if !errors.As(readErr, &mal) || *strict {
			return fmt.Errorf("serve-report: %s: %w", path, readErr)
		}
		fmt.Fprintf(os.Stderr, "serve-report: warning: %v (keeping %d parsed records)\n", readErr, len(recs))
	}
	if len(recs) == 0 {
		return fmt.Errorf("serve-report: %s: no records", path)
	}

	// Duplicate request IDs break per-request reconstruction; in a healthy
	// soak every record is unique.
	seen := make(map[string]int, len(recs))
	dups := 0
	for _, r := range recs {
		if r.ID == "" {
			continue
		}
		if seen[r.ID]++; seen[r.ID] == 2 {
			dups++
			if *strict {
				return fmt.Errorf("serve-report: %s: duplicate request id %q", path, r.ID)
			}
		}
	}
	if dups > 0 {
		fmt.Fprintf(os.Stderr, "serve-report: warning: %d duplicate request id(s)\n", dups)
	}

	// Replay into a fresh recorder so the log-histogram quantile machinery
	// (and the SLO counting) is exactly what the live server runs.
	rec := obsv.New()
	events := map[string]int64{}
	codes := map[string]int64{}
	var promptRows, fedRows int // over requests that finished
	for _, r := range recs {
		tenant := r.Tenant
		if tenant == "" {
			tenant = "default"
		}
		lt := obsv.L("tenant", tenant)
		rec.Add("serve.requests", 1, lt)
		rec.Observe("serve.request_ms", r.TotalMS, lt)
		if r.Code != "ok" {
			rec.Add("serve.errors", 1, lt)
		}
		if r.QueueMS > 0 {
			rec.Observe("serve.queue_wait_ms", r.QueueMS, lt)
		}
		if r.TTFTMS > 0 {
			rec.Observe("serve.ttft_ms", r.TTFTMS, lt)
		}
		if r.ITLMeanMS > 0 {
			rec.Observe("serve.itl_ms", r.ITLMeanMS, lt)
		}
		rec.Add("serve.tokens", int64(r.Tokens), lt)
		if r.Code == "ok" && r.Steps > 0 {
			// A finished request fed its prompt and all but its last token.
			fed := r.PromptTokens + r.Tokens - 1
			promptRows, fedRows = promptRows+r.PromptTokens, fedRows+fed
			rec.Observe("serve.rows_per_step", float64(fed)/float64(r.Steps), lt)
		}
		codes[r.Code]++
		for _, ev := range r.Events {
			events[ev]++
		}
	}

	rep := &core.Report{
		ID:     "SERVE-REPORT",
		Title:  "Serving report: " + path,
		Header: []string{"Metric", "Count", "Mean", "p50", "p95", "p99"},
		Notes: fmt.Sprintf("%d requests, %d unique ids, %d duplicate(s); quantiles from the same log-histogram the live /metrics endpoint serves",
			len(recs), len(seen), dups),
	}
	if fedRows > 0 {
		rep.Notes += fmt.Sprintf("; %.0f%% of the %d rows finished requests fed were prompt rows (serve.rows_per_step: a request's own rows per step it rode)",
			100*float64(promptRows)/float64(fedRows), fedRows)
	}
	for _, code := range sortedKeys(codes) {
		rep.AddRow("verdict "+code, fmt.Sprintf("%d", codes[code]), "", "", "", "")
	}
	for _, ev := range sortedKeys(events) {
		rep.AddRow("event "+ev, fmt.Sprintf("%d", events[ev]), "", "", "", "")
	}
	snap := rec.Snapshot()
	for _, key := range sortedKeys(snap.Dists) {
		d := snap.Dists[key]
		rep.AddRow(key, fmt.Sprintf("%d", d.Count), fmtVal(d.Mean()),
			fmtVal(d.P50), fmtVal(d.P95), fmtVal(d.P99))
	}
	printReport(rep, *markdown)

	if *sloSpec != "" {
		objs, err := obsv.ParseSLOSpec(*sloSpec)
		if err != nil {
			return fmt.Errorf("serve-report: %w", err)
		}
		srep := &core.Report{
			ID:     "SERVE-SLO",
			Title:  "SLO attainment (whole log)",
			Header: []string{"Objective", "Target", "Attained", "Bad", "Total", "Budget used", "Verdict"},
			Notes:  "attainment over the full log; serve -slo reports the same objectives, cumulative, on /statusz",
		}
		violated := 0
		for _, o := range objs {
			st := o.Status(rec)
			verdict := "ok"
			if !st.Met {
				verdict = "VIOLATED"
				violated++
			}
			srep.AddRow(o.Name, fmt.Sprintf("%.4g", st.Target), fmt.Sprintf("%.4g", st.Attained),
				fmt.Sprintf("%d", st.Bad), fmt.Sprintf("%d", st.Total), fmt.Sprintf("%.0f%%", 100*st.BudgetUsed), verdict)
		}
		printReport(srep, *markdown)
		if violated > 0 && *strict {
			return fmt.Errorf("serve-report: %d SLO objective(s) violated", violated)
		}
	}
	return nil
}
