package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	ag "edgellm/internal/autograd"
	"edgellm/internal/core"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// options are one workload run's settings.
type options struct {
	seed    int64
	seconds float64
	trace   bool
	outDir  string
	log     io.Writer // human-readable report; the result line goes to stdout

	// tamper, set only by tests, edits the samples before verification so
	// that a wrong output can be shown to fail the run.
	tamper func([]sample)
}

// setupBudget bounds the extra set-ups made for a steadier setup_s: set-up
// is repeated until three samples are in or the next would pass the budget.
const (
	setupSamples = 3
	setupBudget  = 5.0 // seconds
)

// runWorkload runs one workload and returns its result line.
func runWorkload(w spec, o options) (result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return result{}, err
	}
	var got map[string]float64
	var attempted, failed int
	var err error
	if w.kind == kindTune {
		got, attempted, failed, err = runTune(w, o)
	} else {
		got, attempted, failed, err = runServe(w, o)
	}
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, got)
	if err != nil {
		return result{}, err
	}
	for _, name := range sortedNames(metrics) {
		fmt.Fprintf(o.log, "%-34s %14.4f %s\n", name, metrics[name].Value, metrics[name].Unit)
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// repeatSetup makes the extra set-ups after the measured run is over (so
// their garbage cannot raise peak_rss_mb) and returns the median set-up time.
func repeatSetup(first float64, again func() (float64, error)) (float64, error) {
	samples := []float64{first}
	spent := first
	for len(samples) < setupSamples && spent+first <= setupBudget {
		d, err := again()
		if err != nil {
			return 0, err
		}
		samples = append(samples, d)
		spent += d
	}
	return median(samples), nil
}

// serveRun is a serving workload's generated inputs and live stack.
type serveRun struct {
	w        spec
	clients  int
	perRep   int
	adapters map[string]*nn.Adapter
	dir      string      // adapter artifacts; empty without adapters
	warm     [][]request // per client
	measured [][]request // per client, reps*perRep each

	f    *fixture
	http []*http.Client
}

func newServeRun(w spec, o options) (*serveRun, error) {
	r := &serveRun{w: w, clients: clientCount(), perRep: w.scaled(o.seconds)}
	warm := warmupPerClient
	if w.kind == kindBatch {
		r.clients, warm = 1, w.slots // one full slot-load warms every slot
	}
	r.warm = genRequests(w, o.seed, "warm", r.clients, warm)
	r.measured = genRequests(w, o.seed, "run", r.clients, reps*r.perRep)
	if w.adapters {
		as, err := genAdapters(o.seed)
		if err != nil {
			return nil, err
		}
		r.dir = filepath.Join(o.outDir, fmt.Sprintf("adapters-%s-%d", w.name, os.Getpid()))
		if err := writeAdapters(r.dir, as); err != nil {
			return nil, err
		}
		r.adapters = make(map[string]*nn.Adapter, len(as))
		for _, a := range as {
			r.adapters[a.Name()] = a
		}
	}
	return r, nil
}

func (r *serveRun) cleanup() {
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
}

// setup builds the stack and warms it, and returns how many seconds both
// took at the reference clock.
func (r *serveRun) setup() (float64, error) {
	return atReference(func() error {
		f, err := newFixture(r.w, r.dir)
		if err != nil {
			return err
		}
		r.f, r.http = f, newClients(r.clients)
		samples, _ := r.send(r.warm, nil, 0)
		for _, s := range samples {
			if s.failure != "" {
				return fmt.Errorf("warm-up request %s: %s", s.req.id, s.failure)
			}
		}
		return nil
	})
}

// send drives one list of requests per client through the stack.
func (r *serveRun) send(reqs [][]request, tr *tracer, parent int) ([]sample, time.Duration) {
	if r.w.kind == kindBatch {
		return r.f.runBatch(reqs[0], nil, tr, parent)
	}
	return r.f.runHTTP(r.http, reqs, tr, parent)
}

// rep returns measured rep i's requests, per client.
func (r *serveRun) rep(i int) [][]request { return r.repRange(i, i+1) }

// repRange returns the requests of reps [from, to) as one list per client.
func (r *serveRun) repRange(from, to int) [][]request {
	out := make([][]request, r.clients)
	for c := range out {
		out[c] = r.measured[c][from*r.perRep : to*r.perRep]
	}
	return out
}

func (r *serveRun) close() (time.Duration, error) {
	for _, c := range r.http {
		c.CloseIdleConnections()
	}
	return r.f.close()
}

// tokensOut counts the output tokens of the samples that succeeded.
func tokensOut(samples []sample) int {
	n := 0
	for _, s := range samples {
		if s.failure == "" {
			n += s.outTokens
		}
	}
	return n
}

// latencies pools the client-side timings of the samples that succeeded.
func latencies(samples []sample) (ttft, gaps, total []float64) {
	for _, s := range samples {
		if s.failure != "" {
			continue
		}
		ttft = append(ttft, s.ttftMS)
		gaps = append(gaps, s.gapsMS...)
		total = append(total, s.totalMS)
	}
	return ttft, gaps, total
}

func countFailed(samples []sample, log io.Writer) int {
	n := 0
	for _, s := range samples {
		if s.failure != "" {
			n++
			fmt.Fprintf(log, "FAILED %s: %s\n", s.req.id, s.failure)
		}
	}
	return n
}

func runServe(w spec, o options) (got map[string]float64, attempted, failed int, err error) {
	r, err := newServeRun(w, o)
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.cleanup()
	firstSetup, err := r.setup()
	if err != nil {
		return nil, 0, 0, err
	}
	if o.trace {
		return runServeTraced(r, o)
	}

	// One value per rep of each rate and median latency, at the reference
	// clock (clock.go); the run reports the quietest rep but one (stats.go).
	var all []sample
	var rates, ttft, itl, total []float64
	sw := newStopwatch()
	for i := 0; i < reps; i++ {
		var samples []sample
		var d time.Duration
		slow := sw.lap(func() { samples, d = r.send(r.rep(i), nil, 0) })
		t, g, tot := latencies(samples)
		raw := float64(tokensOut(samples)) / d.Seconds()
		rates = append(rates, raw*slow)
		ttft, itl, total = append(ttft, median(t)/slow), append(itl, median(g)/slow), append(total, median(tot)/slow)
		fmt.Fprintf(o.log, "rep %d: host clock x%.3f slower than reference, %.1f tok/s as timed, %.1f at reference; p50 ttft %.3f itl %.4f req %.2f ms\n", i, slow, raw, rates[i], ttft[i], itl[i], total[i])
		all = append(all, samples...)
	}
	rss := peakRSSMB()
	if _, err := r.close(); err != nil {
		return nil, 0, 0, err
	}
	if o.tamper != nil {
		o.tamper(all)
	}
	ppl, err := verifySolo(r.f, r.adapters, all)
	if err != nil {
		return nil, 0, 0, err
	}
	setupS, err := repeatSetup(firstSetup, func() (float64, error) {
		d, err := r.setup()
		if err != nil {
			return 0, err
		}
		_, err = r.close()
		return d, err
	})
	if err != nil {
		return nil, 0, 0, err
	}
	got = map[string]float64{
		"tok_s":       quiet(rates, "higher"),
		"ttft_ms_p50": quiet(ttft, "lower"),
		"itl_ms_p50":  quiet(itl, "lower"),
		"iter_ms_p50": quiet(total, "lower"),
		"eval_ppl":    ppl,
		"peak_rss_mb": rss,
		"setup_s":     setupS,
	}
	return got, len(all), countFailed(all, o.log), nil
}

// tuneRun is the tuning workload's inputs and live pipeline.
type tuneRun struct {
	in     tuneInputs
	perRep int
	p      *core.Pipeline
}

// setup builds, compresses and warms the pipeline, and returns how many
// seconds that took at the reference clock.
func (t *tuneRun) setup() (float64, error) {
	return atReference(func() error {
		ag.SetPool(tensor.NewPool())
		p, err := newTunePipeline(t.in)
		if err != nil {
			return err
		}
		t.p = p
		if _, failed := tuneSteps(p, t.in.train, tuneWarmup, nil, 0); failed != 0 {
			return fmt.Errorf("%d of %d warm-up steps were not finite", failed, tuneWarmup)
		}
		return nil
	})
}

// finish calibrates the vote on held-out batches.
func (t *tuneRun) finish() { t.p.FinishTuning(t.in.voteIn, t.in.voteTargets) }

func runTune(w spec, o options) (got map[string]float64, attempted, failed int, err error) {
	t := &tuneRun{in: genTuneInputs(o.seed), perRep: w.scaled(o.seconds)}
	defer ag.SetPool(nil)
	firstSetup, err := t.setup()
	if err != nil {
		return nil, 0, 0, err
	}
	if o.trace {
		return runTuneTraced(t, w, o)
	}

	// As on the serving workloads: one rate and one median step time per
	// rep, at the reference clock.
	var rates, stepMS []float64
	steps := 0
	sw := newStopwatch()
	for i := 0; i < reps; i++ {
		var rep []float64
		var bad int
		var d time.Duration
		slow := sw.lap(func() {
			start := time.Now()
			rep, bad = tuneSteps(t.p, t.in.train, t.perRep, nil, 0)
			d = time.Since(start)
		})
		raw := float64(t.perRep*tuneBatch*tuneSeq) / d.Seconds()
		rates, stepMS = append(rates, raw*slow), append(stepMS, median(rep)/slow)
		fmt.Fprintf(o.log, "rep %d: host clock x%.3f slower than reference, %.1f tok/s as timed, %.1f at reference; p50 step %.3f ms\n", i, slow, raw, rates[i], stepMS[i])
		steps += len(rep)
		failed += bad
	}
	t.finish()
	rss := peakRSSMB()
	ppl := t.p.EvalPerplexity(t.in.evalFrom, evalBatches)
	ttft, itl, bad := votedGenerate(t.p, t.in.prompts, o.seed, newStopwatch(), nil, 0)
	failed += bad
	setupS, err := repeatSetup(firstSetup, t.setup)
	if err != nil {
		return nil, 0, 0, err
	}
	got = map[string]float64{
		"tok_s":       quiet(rates, "higher"),
		"ttft_ms_p50": quiet(ttft, "lower"),
		"itl_ms_p50":  quiet(itl, "lower"),
		"iter_ms_p50": quiet(stepMS, "lower"),
		"eval_ppl":    ppl,
		"peak_rss_mb": rss,
		"setup_s":     setupS,
	}
	if failed > 0 {
		fmt.Fprintf(o.log, "FAILED %d tuning steps or generations\n", failed)
	}
	return got, steps + len(t.in.prompts), failed, nil
}

// withRecorder runs f with a fresh program recorder installed and returns
// its final snapshot. When trace is non-nil the program's own spans are
// streamed into it as Chrome trace events.
func withRecorder(trace *bytes.Buffer, f func()) (obsv.Summary, error) {
	rec := obsv.New()
	var tw *obsv.TraceWriter
	if trace != nil {
		tw = obsv.NewTraceWriter(trace)
		rec.SetTraceWriter(tw)
	}
	obsv.SetGlobal(rec)
	f()
	obsv.SetGlobal(nil)
	snap := rec.Snapshot()
	if tw != nil {
		if err := tw.Close(); err != nil {
			return snap, err
		}
	}
	return snap, nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() (count, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}
