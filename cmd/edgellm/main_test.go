package main

import (
	"os"
	"strings"
	"testing"

	"edgellm/internal/core"
)

func TestFmtB(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{512, "512 B"},
		{2048, "2.00 KiB"},
		{3 << 20, "3.00 MiB"},
	}
	for _, c := range cases {
		if got := fmtB(c.n); got != c.want {
			t.Errorf("fmtB(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestOneExperimentUnknownID(t *testing.T) {
	if _, err := oneExperiment("T9", true); err == nil {
		t.Fatal("unknown experiment id must error")
	}
}

// TestCmdExperimentsFaultSmoke drives the real CLI path with injected
// faults: a panicking experiment must degrade to an error-annotated row and
// make the command return a failure-summary error, while healthy
// experiments still complete.
func TestCmdExperimentsFaultSmoke(t *testing.T) {
	err := cmdExperiments([]string{"-quick", "-t", "F1", "-fault", "panic=F1"})
	if err == nil {
		t.Fatal("cmdExperiments must report the injected failure")
	}
	if !strings.Contains(err.Error(), "1 of 1 experiments failed") {
		t.Fatalf("err = %v, want failure summary", err)
	}
}

// TestCmdExperimentsFaultRecovers: a flaky (first-attempt-only) fault is
// retried and the command succeeds.
func TestCmdExperimentsFaultRecovers(t *testing.T) {
	if err := cmdExperiments([]string{"-quick", "-t", "F1", "-fault", "flaky=F1"}); err != nil {
		t.Fatalf("retry did not recover the flaky experiment: %v", err)
	}
}

func TestCmdExperimentsBadFaultSpec(t *testing.T) {
	if err := cmdExperiments([]string{"-quick", "-t", "F1", "-fault", "nonsense"}); err == nil {
		t.Fatal("bad -fault spec must error")
	}
}

func TestFirstErrLine(t *testing.T) {
	if got := firstErrLine("boom\nstack"); got != "boom" {
		t.Fatalf("firstErrLine = %q", got)
	}
	if got := firstErrLine("single"); got != "single" {
		t.Fatalf("firstErrLine = %q", got)
	}
}

func TestOneExperimentAnalyticIDs(t *testing.T) {
	// The purely analytic experiments are cheap enough to run in a test;
	// each must produce a non-empty report with the right id.
	for _, id := range []string{"T3", "F1", "F4", "F5", "F6", "F7", "A2", "A5", "A6"} {
		r, err := oneExperiment(id, true)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if r.ID != id || len(r.Rows) == 0 {
			t.Fatalf("%s: bad report (id %q, %d rows)", id, r.ID, len(r.Rows))
		}
		if !strings.Contains(r.String(), id+":") {
			t.Fatalf("%s: rendering lacks the id header", id)
		}
	}
}

func TestParseMemBudget(t *testing.T) {
	half := core.VanillaPeakBytes(core.DefaultConfig()) / 2
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"", 0, true},
		{"1048576", 1 << 20, true},
		{"4KiB", 4 << 10, true},
		{"1.5MiB", 3 << 19, true},
		{"2GiB", 2 << 30, true},
		{"half-vanilla", half, true},
		{"nonsense", 0, false},
		{"-5", 0, false},
		{"12XiB", 0, false},
	}
	for _, c := range cases {
		got, err := parseMemBudget(c.in)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseMemBudget(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("parseMemBudget(%q) accepted, want error", c.in)
		}
	}
}

// TestCmdExperimentsStageTimeoutKillsStall: the CLI path of the stall
// watchdog — an injected stall is cancelled at the stage deadline and the
// command exits non-zero with the row reported as failed.
func TestCmdExperimentsStageTimeoutKillsStall(t *testing.T) {
	err := cmdExperiments([]string{"-quick", "-t", "F1", "-fault", "stall=F1", "-stage-timeout", "300ms"})
	if err == nil {
		t.Fatal("a stalled-and-killed row must fail the command")
	}
	if !strings.Contains(err.Error(), "failed") {
		t.Fatalf("error %q does not report the failed row", err)
	}
}

// TestCmdExperimentsSuiteTimeout: the whole-suite deadline produces a
// partial report and a non-zero exit.
func TestCmdExperimentsSuiteTimeout(t *testing.T) {
	err := cmdExperiments([]string{"-quick", "-t", "T3", "-fault", "stall=T3", "-timeout", "300ms"})
	if err == nil {
		t.Fatal("suite timeout must exit non-zero")
	}
	if !strings.Contains(err.Error(), "suite stopped early") {
		t.Fatalf("error %q does not mark the early stop", err)
	}
}

// TestCmdExperimentsGovernedAnalytic: a governed run of an analytic
// experiment completes under a tight budget (nothing to degrade, nothing
// to kill).
func TestCmdExperimentsGovernedAnalytic(t *testing.T) {
	if err := cmdExperiments([]string{"-quick", "-t", "F4", "-mem-budget", "half-vanilla", "-stage-timeout", "60s"}); err != nil {
		t.Fatalf("governed analytic run failed: %v", err)
	}
}

// TestCmdFleetFailingMetricsSink: a telemetry sink that cannot be written
// (a full disk) must fail the command even though the simulation itself
// succeeded — every subcommand tears its sinks down through setupObsv.
func TestCmdFleetFailingMetricsSink(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	err := cmdFleet([]string{"-devices", "2", "-steps", "4", "-epoch", "2", "-metrics", "/dev/full"})
	if err == nil {
		t.Fatal("fleet exited 0 with a truncated -metrics file")
	}
	if !strings.Contains(err.Error(), "metrics emitter") {
		t.Fatalf("error %q does not name the failed sink", err)
	}
}
