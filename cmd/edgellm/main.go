// Command edgellm is the CLI for the Edge-LLM reproduction. Subcommands:
//
//	experiments  regenerate the paper's tables/figures and ablations
//	             (-t T1..T3,F1..F7,A1..A7; -quick; -markdown)
//	demo         run the full pipeline end to end on the synthetic task
//	schedule     search hardware schedules for one GEMM shape
//	sensitivity  print the per-layer sensitivity profile of a fresh model
//	train        adapt a model with the Edge-LLM pipeline, save a checkpoint
//	generate     sample from a saved checkpoint with KV-cached decoding
//	serve        multi-tenant HTTP inference server with admission control,
//	             deadlines, graceful drain, request tracing, SLO burn-rate
//	             tracking, a JSONL access log, and a chaos fault seam
//	telemetry    summarise or diff JSONL metric files from -metrics runs;
//	             serve-report analyses a serving access log
//
// Run `edgellm <subcommand> -h` for flags.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	ag "edgellm/internal/autograd"
	"edgellm/internal/core"
	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/hwsim"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "experiments":
		err = cmdExperiments(os.Args[2:])
	case "demo":
		err = cmdDemo(os.Args[2:])
	case "schedule":
		err = cmdSchedule(os.Args[2:])
	case "sensitivity":
		err = cmdSensitivity(os.Args[2:])
	case "train":
		err = cmdTrain(os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "telemetry":
		err = cmdTelemetry(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "edgellm: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "edgellm: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: edgellm <subcommand> [flags]

subcommands:
  experiments   regenerate paper tables/figures (-t <id>, -quick, -markdown)
  demo          end-to-end pipeline demo on the synthetic task
  schedule      hardware schedule search for one GEMM (-m -n -k -bits -sparsity)
  sensitivity   per-layer compression sensitivity profile
  train         adapt a model with the Edge-LLM pipeline and save a checkpoint
  generate      sample tokens from a saved checkpoint (KV-cached decoding)
  serve         multi-tenant HTTP inference server (admission control, deadlines, drain,
                -fault chaos, -trace timelines, -slo burn rates, -access-log JSONL)
  telemetry     summarise one JSONL metrics file, diff two (A-vs-B regression delta),
                or analyse a serving access log (serve-report [-slo] [-strict])`)
}

func cmdExperiments(args []string) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	id := fs.String("t", "", "run only the experiment with this id (T1..T3, F1..F7, A1..A7); ids may also be given as positional arguments")
	quick := fs.Bool("quick", false, "shrink trained experiments for a fast smoke run")
	markdown := fs.Bool("markdown", false, "emit markdown tables")
	parallel := fs.Int("parallel", 1, "max concurrent tasks in the experiment runner (1 = sequential; results are identical at any value)")
	metrics := fs.String("metrics", "", "write JSONL observability events (manifest, spans, metrics, summary) to this file")
	trace := fs.String("trace", "", "write a Chrome trace-event JSON file (open in chrome://tracing or Perfetto) to this path")
	spanlog := fs.Bool("spanlog", false, "print one line per completed timing span to stderr")
	telemetryAddr := fs.String("telemetry-addr", "", "serve live telemetry on this host:port (/metrics Prometheus text, /debug/vars, /debug/pprof); use :0 for an ephemeral port")
	faultSpec := fs.String("fault", "", `inject deterministic faults: comma-separated mode=ID pairs (panic=F5,flaky=T3,fail=A2) or "smoke"`)
	retries := fs.Int("retries", 0, "retry budget per experiment for retryable failures (0 = default, negative disables)")
	memBudget := fs.String("mem-budget", "", `hard per-experiment memory budget for the resource governor: bytes with optional KiB/MiB/GiB suffix, or "half-vanilla" for half the analytic vanilla-FT peak`)
	stageTimeout := fs.Duration("stage-timeout", 0, "wall-clock deadline per experiment attempt; a stalled experiment is cancelled and reported as a failed row")
	suiteTimeout := fs.Duration("timeout", 0, "whole-suite deadline: in-flight experiments drain, unrun rows are marked skipped, and the command exits non-zero")
	fs.Parse(args)

	// The training hot path allocates its tapes from one arena.
	ag.SetPool(tensor.NewPool())
	defer ag.SetPool(nil)

	cfg := core.DefaultConfig()
	man := obsv.NewManifest("edgellm experiments", cfg.Seed, struct {
		Config   core.Config
		Quick    bool
		Parallel int
		Pool     string
	}{cfg, *quick, *parallel, "on"})
	man.Parallel, man.Pool, man.Kernel = *parallel, "on", tensor.KernelPath()

	budget, err := parseMemBudget(*memBudget, true)
	if err != nil {
		return err
	}
	var gov *govern.Governor
	if budget > 0 || *stageTimeout > 0 {
		gov = govern.New(govern.Budget{MemoryBytes: budget, StageTimeout: *stageTimeout})
		fmt.Fprintf(os.Stderr, "edgellm: resource governor: mem budget %s, stage timeout %s\n",
			fmtB(budget), *stageTimeout)
		// Mirrored into the manifest so a metrics file is self-describing
		// about whether its run was governed.
		man.Govern = "on"
		man.MemBudgetBytes = budget
		man.StageTimeoutMS = float64(*stageTimeout) / float64(time.Millisecond)
	}

	rec, finish, err := setupObsv(obsvConfig{
		Tool: "edgellm", MetricsPath: *metrics, TracePath: *trace, SpanLog: *spanlog,
		TelemetryAddr: *telemetryAddr, Manifest: &man,
	})
	if err != nil {
		return err
	}
	defer closeObsv(finish, &err)
	defer rec.EmitSummary()

	sizes := core.DefaultSizes()
	if *quick {
		sizes = core.QuickSizes()
	}
	var only []string
	if *id != "" {
		only = []string{strings.ToUpper(*id)}
	}
	for _, a := range fs.Args() {
		only = append(only, strings.ToUpper(a))
	}

	opts := core.SuiteOpts{
		Sizes: sizes, Parallel: *parallel, Only: only, MaxRetries: *retries,
	}
	if *faultSpec != "" {
		inj, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "edgellm: injecting faults: %s\n", inj.Describe())
		opts.Inject = inj.Hook
	}

	opts.Govern = gov

	// Ctrl-C / SIGTERM cancels the suite; in-flight grid points finish, no
	// new ones start, and RunAll returns context.Canceled.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	if *suiteTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *suiteTimeout)
		defer cancel()
	}

	start := time.Now()
	reports, runErr := core.RunAll(ctx, opts)
	// A cancelled suite (deadline, Ctrl-C) still returns the partial
	// reports: completed rows are real results, unrun rows are marked
	// skipped. Print what there is, then exit non-zero.
	for _, r := range reports {
		if *markdown {
			fmt.Println(r.Markdown())
		} else {
			fmt.Println(r.String())
		}
	}
	if gov != nil {
		rec.EmitGovern(gov.Record())
		printGovernSummary(gov)
	}
	if runErr != nil {
		if len(reports) > 0 {
			return fmt.Errorf("suite stopped early (%d rows reported): %w", len(reports), runErr)
		}
		return runErr
	}
	if failed := failedReports(reports); len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "edgellm: %d of %d experiments failed:\n", len(failed), len(reports))
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "  %s: %s\n", r.ID, firstErrLine(r.Err))
		}
		return fmt.Errorf("%d of %d experiments failed", len(failed), len(reports))
	}
	if len(only) == 0 {
		fmt.Printf("all experiments regenerated in %s\n", time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// parseMemBudget parses a -mem-budget value: bytes, or a KiB/MiB/GiB value,
// below 2^63 bytes; empty is no budget. With halfVanilla it also takes the
// keyword "half-vanilla": half the analytic vanilla full-fine-tuning peak of
// the default configuration, the paper's reference point for a constrained
// edge device.
func parseMemBudget(s string, halfVanilla bool) (int64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	if halfVanilla && s == "half-vanilla" {
		return core.VanillaPeakBytes(core.DefaultConfig()) / 2, nil
	}
	num, mult := s, 1.0
	for _, suf := range []struct {
		name string
		mult float64
	}{{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10}} {
		if strings.HasSuffix(s, suf.name) {
			num, mult = strings.TrimSuffix(s, suf.name), suf.mult
			break
		}
	}
	val, err := strconv.ParseFloat(num, 64)
	// Written so that NaN fails too; 2^63 is the first count int64 cannot hold.
	if err != nil || !(val >= 0 && val*mult < 1<<63) {
		return 0, fmt.Errorf(`edgellm: bad -mem-budget %q (want bytes or a KiB/MiB/GiB value below 2^63 bytes; experiments also takes "half-vanilla")`, s)
	}
	return int64(val * mult), nil
}

// printGovernSummary reports what the governor did on stderr: every ladder
// decision, unmet budgets, and the live-pool cross-check.
func printGovernSummary(gov *govern.Governor) {
	rec := gov.Record()
	if len(rec.Decisions) == 0 && len(rec.UnmetTasks) == 0 {
		fmt.Fprintln(os.Stderr, "edgellm: governor: no degradation needed")
		return
	}
	fmt.Fprintf(os.Stderr, "edgellm: governor: %d degradation decisions under %s budget\n",
		len(rec.Decisions), fmtB(rec.BudgetBytes))
	for _, d := range rec.Decisions {
		fmt.Fprintf(os.Stderr, "  %s %s [%s] %s: %s → %s\n",
			d.Task, d.Trigger, d.Rung, d.Detail, fmtB(d.BeforeBytes), fmtB(d.AfterBytes))
	}
	for _, t := range rec.UnmetTasks {
		fmt.Fprintf(os.Stderr, "  %s: ladder floor still exceeds budget (proceeded at floor)\n", t)
	}
	if rec.LivePeakBytes > 0 {
		fmt.Fprintf(os.Stderr, "  live pool peak: %s (%d overshoots)\n", fmtB(rec.LivePeakBytes), rec.LiveOvershoots)
	}
}

// failedReports selects the degraded reports of a suite run.
func failedReports(reports []*core.Report) []*core.Report {
	var failed []*core.Report
	for _, r := range reports {
		if r.Failed() {
			failed = append(failed, r)
		}
	}
	return failed
}

// firstErrLine keeps the per-experiment failure summary one line per
// experiment even when the error carries a panic stack.
func firstErrLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// obsvConfig selects the telemetry sinks of one subcommand run.
type obsvConfig struct {
	Tool          string // stderr line prefix ("edgellm", "serve")
	MetricsPath   string // JSONL event stream
	TracePath     string // Chrome trace-event JSON
	SpanLog       bool   // human span lines on stderr
	TelemetryAddr string // live /metrics + /debug/pprof endpoint

	// Always installs a recorder even when no sink is selected, for a
	// subcommand that reads its own counters back (serve).
	Always bool
	// Manifest, when set, is emitted as the stream's first event.
	Manifest *obsv.Manifest
}

// setupObsv is the one flags → recorder / JSONL emitter / Chrome trace /
// live endpoint wiring. It installs a global obsv recorder when a sink (or
// Always) asks for one and returns it with the teardown; with nothing
// selected the recorder is nil (every Recorder method is nil-safe) and
// observability stays off. The teardown uninstalls the recorder, closes
// every sink, and returns the first error any sink retained (truncated
// JSONL, failed trace write, ...), so no subcommand can exit 0 having
// silently dropped telemetry — run it through closeObsv.
func setupObsv(c obsvConfig) (*obsv.Recorder, func() error, error) {
	if !c.Always && c.MetricsPath == "" && c.TracePath == "" && !c.SpanLog && c.TelemetryAddr == "" {
		return nil, func() error { return nil }, nil
	}
	rec := obsv.New()
	var files []*os.File
	var emitter *obsv.Emitter
	var tw *obsv.TraceWriter
	var server *obsv.Server
	finish := func() error {
		obsv.SetGlobal(nil)
		var errs []error
		if tw != nil {
			if err := tw.Close(); err != nil {
				errs = append(errs, fmt.Errorf("trace writer: %w", err))
			}
		}
		if err := emitter.Err(); err != nil {
			errs = append(errs, fmt.Errorf("metrics emitter: %w", err))
		}
		for _, f := range files {
			if err := f.Close(); err != nil {
				errs = append(errs, fmt.Errorf("close %s: %w", f.Name(), err))
			}
		}
		if server != nil {
			server.Close()
		}
		return errors.Join(errs...)
	}
	// fail releases whatever was opened before a later sink failed.
	fail := func(what string, err error) (*obsv.Recorder, func() error, error) {
		_ = finish() // the setup error is the one worth reporting
		return nil, nil, fmt.Errorf("%s: %w", what, err)
	}
	if c.MetricsPath != "" {
		f, err := os.Create(c.MetricsPath)
		if err != nil {
			return fail("create metrics file", err)
		}
		files = append(files, f)
		emitter = obsv.NewEmitter(f)
		rec.SetEmitter(emitter)
		fmt.Fprintf(os.Stderr, "%s: streaming telemetry events to %s\n", c.Tool, c.MetricsPath)
	}
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return fail("create trace file", err)
		}
		files = append(files, f)
		tw = obsv.NewTraceWriter(f)
		rec.SetTraceWriter(tw)
		fmt.Fprintf(os.Stderr, "%s: writing span timelines to %s (Chrome trace format)\n", c.Tool, c.TracePath)
	}
	if c.SpanLog {
		rec.SetTrace(os.Stderr)
	}
	if c.TelemetryAddr != "" {
		srv, err := obsv.StartServer(c.TelemetryAddr, rec)
		if err != nil {
			return fail("start telemetry server", err)
		}
		server = srv
		fmt.Fprintf(os.Stderr, "%s: telemetry listening on http://%s (/metrics, /debug/vars, /debug/pprof)\n", c.Tool, srv.Addr())
	}
	if c.Manifest != nil {
		rec.EmitManifest(*c.Manifest)
	}
	obsv.SetGlobal(rec)
	return rec, finish, nil
}

// closeObsv runs a setupObsv teardown on a subcommand's way out (defer it
// with the named return error). The run's own error wins, but a clean run
// still exits non-zero when its telemetry was lost.
func closeObsv(finish func() error, err *error) {
	if ferr := finish(); ferr != nil {
		fmt.Fprintf(os.Stderr, "edgellm: telemetry error: %v\n", ferr)
		if *err == nil {
			*err = ferr
		}
	}
}

// oneExperiment regenerates a single report through the registry-backed
// runner (sequentially); unknown ids surface as an error.
func oneExperiment(id string, quick bool) (*core.Report, error) {
	sizes := core.DefaultSizes()
	if quick {
		sizes = core.QuickSizes()
	}
	reports, err := core.RunAll(context.Background(), core.SuiteOpts{
		Sizes: sizes, Parallel: 1, Only: []string{id},
	})
	if err != nil {
		return nil, err
	}
	return reports[0], nil
}

func cmdDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	iters := fs.Int("iters", 300, "tuning iterations")
	fs.Parse(args)
	if *iters < 1 {
		return fmt.Errorf("demo: -iters must be at least 1, got %d", *iters)
	}

	cfg := core.DefaultConfig()
	task := core.NewTask(42, cfg.Model.Vocab)
	fmt.Println("pretraining base model on the source domain...")
	task.EnsureBase(context.Background(), cfg, 600)
	p, err := task.Adapt(cfg, task.Train, func(p *core.Pipeline) {
		fmt.Printf("model: %d layers, dim %d, vocab %d\n", cfg.Model.Layers, cfg.Model.Dim, cfg.Model.Vocab)
		fmt.Printf("held-out perplexity before adaptation: %.3f\n", p.EvalPerplexity(task.Eval, 8))
	}, func(p *core.Pipeline) {
		fmt.Printf("LUC policy (budget %.1f bits): %s\n", cfg.BudgetBits, p.Policy.Describe(p.Candidates()))
		fmt.Printf("achieved average effective bits: %.2f\n", p.Info.AvgEffectiveBits)
		start := time.Now()
		losses := p.Tune(task.Train, *iters)
		fmt.Printf("adaptive tuning: %d iterations in %s (loss %.3f → %.3f)\n",
			*iters, time.Since(start).Round(time.Millisecond), losses[0], losses[len(losses)-1])
	})
	if err != nil {
		return err
	}
	fmt.Printf("held-out perplexity after adaptation (voted): %.3f\n", p.EvalPerplexity(task.Eval, 8))

	mem := p.Memory()
	fmt.Printf("per-iteration memory: weights %s, activations %s, grads %s, opt %s (total %s)\n",
		fmtB(mem.Weights), fmtB(mem.Activations), fmtB(mem.Grads), fmtB(mem.OptState), fmtB(mem.Total()))

	iter := p.IterationCost(hwsim.NewSearchedScheduler())
	fmt.Printf("simulated edge-GPU iteration latency: %.2f ms (%.1f%% util)\n",
		iter.TotalSec*1e3, iter.Utilization(cfg.Device)*100)
	return nil
}

func fmtB(n int64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

func cmdSchedule(args []string) error {
	fs := flag.NewFlagSet("schedule", flag.ExitOnError)
	m := fs.Int("m", 1024, "GEMM M (rows)")
	n := fs.Int("n", 2048, "GEMM N (output channels)")
	k := fs.Int("k", 2048, "GEMM K (input channels)")
	bits := fs.Int("bits", 4, "weight bit-width")
	sparsity := fs.Float64("sparsity", 0.5, "weight sparsity")
	fs.Parse(args)
	for _, d := range []struct {
		flag string
		v    int
	}{{"-m", *m}, {"-n", *n}, {"-k", *k}} {
		if d.v < 1 {
			return fmt.Errorf("schedule: %s must be at least 1, got %d", d.flag, d.v)
		}
	}
	if *bits < 2 || *bits > 8 {
		return fmt.Errorf("schedule: -bits must be in [2, 8], got %d", *bits)
	}
	if !(*sparsity >= 0 && *sparsity < 1) {
		return fmt.Errorf("schedule: -sparsity must be in [0, 1), got %v", *sparsity)
	}

	dev := hwsim.EdgeGPU()
	g := hwsim.GEMM{M: *m, N: *n, K: *k, WeightBits: *bits, WeightSparsity: *sparsity}
	st := hwsim.AnalyzeSpace(dev, g)
	naive := hwsim.NaiveSchedule().Cost(dev, g)
	fmt.Printf("GEMM %dx%dx%d, %d-bit weights @ %.0f%% sparsity on %s\n",
		*m, *n, *k, *bits, *sparsity*100, dev.Name)
	fmt.Printf("schedule space: %d fitting schedules\n", st.Count)
	fmt.Printf("naive   : %.3f ms\n", naive.TotalSec*1e3)
	fmt.Printf("median  : %.3f ms\n", st.MedianSec*1e3)
	fmt.Printf("best    : %.3f ms  (%s, %.1f%% util, %.2fx over naive)\n",
		st.BestSec*1e3, st.BestSchedule, st.BestUtil*100, naive.TotalSec/st.BestSec)
	_, sa := hwsim.SearchAnnealed(dev, g, 1, 2000)
	fmt.Printf("annealed: %.3f ms  (%.2fx of exhaustive best)\n", sa.TotalSec*1e3, sa.TotalSec/st.BestSec)
	return nil
}

func cmdTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	iters := fs.Int("iters", 400, "adaptive tuning iterations")
	pretrain := fs.Int("pretrain", 600, "base pretraining iterations")
	out := fs.String("o", "model.ckpt", "checkpoint output path")
	seed := fs.Int64("seed", 42, "experiment seed")
	fs.Parse(args)
	if *iters < 1 {
		return fmt.Errorf("train: -iters must be at least 1, got %d", *iters)
	}
	if *pretrain < 0 {
		return fmt.Errorf("train: -pretrain must be at least 0, got %d", *pretrain)
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	task := core.NewTask(*seed, cfg.Model.Vocab)
	fmt.Printf("pretraining base (%d iters)...\n", *pretrain)
	task.EnsureBase(context.Background(), cfg, *pretrain)

	// The probe is calibrated on the source domain the base knows.
	p, err := task.Adapt(cfg, task.Pretrain, nil, func(p *core.Pipeline) {
		fmt.Printf("compressed: %s\n", p.Policy.Describe(p.Candidates()))
		losses := p.Tune(task.Train, *iters)
		fmt.Printf("tuned %d iterations: loss %.3f → %.3f\n", *iters, losses[0], losses[len(losses)-1])
	})
	if err != nil {
		return err
	}
	fmt.Printf("target-domain perplexity: %.3f\n", p.EvalPerplexity(task.Eval, 8))

	if err := p.Model.SaveFile(*out); err != nil {
		return err
	}
	fmt.Printf("checkpoint written to %s\n", *out)
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	ckpt := fs.String("ckpt", "model.ckpt", "checkpoint path")
	promptStr := fs.String("prompt", "1,2,3", "comma-separated prompt token ids")
	n := fs.Int("n", 24, "tokens to generate")
	temp := fs.Float64("temp", 0.8, "sampling temperature (0 = greedy)")
	topK := fs.Int("topk", 0, "top-k filter (0 = off)")
	seed := fs.Int64("seed", 1, "sampling seed")
	fs.Parse(args)
	var prompt []int
	for _, part := range strings.Split(*promptStr, ",") {
		tok, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return fmt.Errorf("generate: -prompt token %q is not an integer", part)
		}
		prompt = append(prompt, tok)
	}

	m, err := nn.LoadFile(*ckpt)
	if err != nil {
		return err
	}
	dec := nn.NewDecoder(m)
	out, err := dec.Generate(prompt, nn.SampleConfig{
		Temperature: *temp, TopK: *topK, MaxTokens: *n, Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("prompt:      %v\n", prompt)
	fmt.Printf("continuation: %v\n", out[len(prompt):])
	return nil
}

func cmdSensitivity(args []string) error {
	fs := flag.NewFlagSet("sensitivity", flag.ExitOnError)
	iters := fs.Int("pretrain", 200, "pretraining iterations before probing")
	fs.Parse(args)
	if *iters < 0 {
		return fmt.Errorf("sensitivity: -pretrain must be at least 0, got %d", *iters)
	}
	fmt.Println(core.ExperimentF3(context.Background(), *iters).String())
	return nil
}
