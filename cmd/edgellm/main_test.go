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
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"9223372036854775807", 0, false}, // rounds to 2^63 as a float64
		{"1e19", 0, false},
		{"1e30GiB", 0, false},
		{"8589934591GiB", 8589934591 << 30, true}, // 2^63 - 1 GiB
		{"8589934592GiB", 0, false},               // 2^63
	}
	for _, c := range cases {
		got, err := parseMemBudget(c.in, true)
		if c.ok && (err != nil || got != c.want) {
			t.Errorf("parseMemBudget(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
		if !c.ok && (err == nil || !strings.Contains(err.Error(), "bad -mem-budget")) {
			t.Errorf("parseMemBudget(%q) = %d, %v; want the bad -mem-budget error", c.in, got, err)
		}
	}
	if _, err := parseMemBudget("half-vanilla", false); err == nil {
		t.Error(`parseMemBudget("half-vanilla") accepted where the keyword is not allowed`)
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

// TestCmdExperimentsFailingMetricsSink: a telemetry sink that cannot be
// written (a full disk) must fail the command even though the experiment
// itself succeeded — every subcommand tears its sinks down through setupObsv.
func TestCmdExperimentsFailingMetricsSink(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("/dev/full not available on this platform")
	}
	err := cmdExperiments([]string{"-t", "F1", "-metrics", "/dev/full"})
	if err == nil {
		t.Fatal("experiments exited 0 with a truncated -metrics file")
	}
	if !strings.Contains(err.Error(), "metrics emitter") {
		t.Fatalf("error %q does not name the failed sink", err)
	}
}

// TestCmdDemoRejectsZeroIters: -iters 0 is a flag error before any
// pretraining, not a panic on an empty loss curve.
func TestCmdDemoRejectsZeroIters(t *testing.T) {
	err := cmdDemo([]string{"-iters", "0"})
	if err == nil || !strings.Contains(err.Error(), "-iters") {
		t.Fatalf("demo -iters 0: err = %v, want a -iters flag error", err)
	}
}

// TestCmdTrainRejectsZeroIters: the same for train, which would otherwise
// pretrain, tune zero steps and panic before writing its checkpoint.
func TestCmdTrainRejectsZeroIters(t *testing.T) {
	out := t.TempDir() + "/m.ckpt"
	err := cmdTrain([]string{"-iters", "0", "-o", out})
	if err == nil || !strings.Contains(err.Error(), "-iters") {
		t.Fatalf("train -iters 0: err = %v, want a -iters flag error", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatal("train -iters 0 wrote a checkpoint")
	}
}

// TestCmdTrainRejectsNegativePretrain: -pretrain below 0 is a flag error
// before any pretraining, not a run that silently pretrains 0 steps.
func TestCmdTrainRejectsNegativePretrain(t *testing.T) {
	out := t.TempDir() + "/m.ckpt"
	err := cmdTrain([]string{"-pretrain", "-5", "-o", out})
	if err == nil || !strings.Contains(err.Error(), "-pretrain") {
		t.Fatalf("train -pretrain -5: err = %v, want a -pretrain flag error", err)
	}
	if _, statErr := os.Stat(out); statErr == nil {
		t.Fatal("train -pretrain -5 wrote a checkpoint")
	}
}

// TestCmdSensitivityRejectsNegativePretrain: the same for sensitivity.
func TestCmdSensitivityRejectsNegativePretrain(t *testing.T) {
	err := cmdSensitivity([]string{"-pretrain", "-1"})
	if err == nil || !strings.Contains(err.Error(), "-pretrain") {
		t.Fatalf("sensitivity -pretrain -1: err = %v, want a -pretrain flag error", err)
	}
}

// TestCmdGenerateRejectsBadPrompt: a -prompt token that is not a whole
// integer is a flag error before the checkpoint loads (the path here does
// not exist), not a prefix parsed as a token or a token dropped.
func TestCmdGenerateRejectsBadPrompt(t *testing.T) {
	ckpt := t.TempDir() + "/absent.ckpt"
	for _, prompt := range []string{"1,2x,3", "3.7", "", "1,,2"} {
		err := cmdGenerate([]string{"-ckpt", ckpt, "-prompt", prompt})
		if err == nil || !strings.Contains(err.Error(), "-prompt") {
			t.Errorf("generate -prompt %q: err = %v, want a -prompt flag error", prompt, err)
		}
	}
}

// TestCmdScheduleRejectsBadShapes: a GEMM dimension below 1, a width outside
// the packed format's 2–8 bits or a sparsity outside [0, 1) is a flag error
// before anything is priced, not a NaN cost or a 0-bit weight priced as
// valid.
func TestCmdScheduleRejectsBadShapes(t *testing.T) {
	for _, args := range [][]string{
		{"-m", "0"}, {"-n", "0"}, {"-k", "-3"},
		{"-bits", "0"}, {"-bits", "1"}, {"-bits", "9"},
		{"-sparsity", "-0.1"}, {"-sparsity", "1"}, {"-sparsity", "NaN"},
	} {
		err := cmdSchedule(args)
		if err == nil || !strings.Contains(err.Error(), args[0]) {
			t.Errorf("schedule %v: err = %v, want a %s flag error", args, err, args[0])
		}
	}
}
