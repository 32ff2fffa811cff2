package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// A traced run measures the workload twice, a third of the requests with
// tracing off and a third with the program's obsv.Recorder installed and the
// benchmark's spans on (their ratio is the tracing overhead), then climbs
// the ladder.
const tracedReps = reps / 3

// climb runs every rung below the workload. r is the serving stack whose
// shape the serving-side rungs take, top what its HTTP (or batch) rung
// observed and drain how long it took to drain.
func (l *ladder) climb(r *serveRun, reqs [][]request, top serveObs, drain time.Duration) error {
	l.root = l.tr.begin("ladder", 0, "")
	defer l.tr.end(l.root)
	model := nn.NewModel(serveModel, tensor.NewRNG(serveModelSeed))
	l.tensorRung(model)
	l.quantRung(model)
	if err := l.nnRung(model); err != nil {
		return err
	}
	sched, err := l.schedRung(r, reqs)
	if err != nil {
		return err
	}
	if n := countFailed(sched.samples, os.Stderr); n > 0 {
		return fmt.Errorf("%d requests failed on the scheduler rung", n)
	}
	l.serveMetrics(r.w, sched, top, drain)
	l.governRung(r.w)
	return l.tuneRungs()
}

// finish writes the trace files and the self-time report.
func (l *ladder) finish(o options, name string, progTrace *bytes.Buffer) error {
	l.m["obsv.spans_recorded"] = float64(l.tr.count())
	spans, err := os.Create(filepath.Join(o.outDir, name+".spans.json"))
	if err != nil {
		return err
	}
	if err := writeChromeTrace(spans, l.tr.spans); err != nil {
		spans.Close()
		return err
	}
	if err := spans.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.outDir, name+".program.json"), progTrace.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "-- self time of the benchmark's spans (Chrome traces in %s)\n", o.outDir)
	writeSelfReport(o.log, l.tr.spans)
	return nil
}

func runServeTraced(r *serveRun, o options) (map[string]float64, int, int, error) {
	l := &ladder{m: map[string]float64{}, tr: &tracer{}, seed: o.seed}
	var plain []sample
	var plainWall time.Duration
	sw := newStopwatch()
	sw.lap(func() { plain, plainWall = r.send(r.repRange(0, tracedReps), nil, 0) })
	var progTrace bytes.Buffer
	root := l.tr.begin("workload."+r.w.name, 0, "")
	tracedReqs := r.repRange(tracedReps, 2*tracedReps)
	var top serveObs
	var err error
	sw.lap(func() { top, err = observe(r.send, tracedReqs, l.tr, root, &progTrace) })
	l.tr.end(root)
	if err != nil {
		return nil, 0, 0, err
	}
	l.m["host.clock_slowdown"] = median(sw.slowdown)
	l.m["client.tok_s_wall"] = float64(tokensOut(plain)) / plainWall.Seconds()
	drain, err := r.close()
	if err != nil {
		return nil, 0, 0, err
	}
	all := append(plain, top.samples...)
	if _, err := verifySolo(r.f, r.adapters, all); err != nil {
		return nil, 0, 0, err
	}
	l.m["obsv.trace_overhead_share"] = 1 - top.tokS()/(float64(tokensOut(plain))/plainWall.Seconds())
	if err := l.climb(r, tracedReqs, top, drain); err != nil {
		return nil, 0, 0, err
	}
	l.clientMetrics(latencies(all))
	fmt.Fprintf(o.log, "-- %s: end-to-end latency predicted from the layer numbers\n", r.w.name)
	l.predict(o.log, r.w, top)
	if err := l.finish(o, r.w.name, &progTrace); err != nil {
		return nil, 0, 0, err
	}
	return l.m, len(all), countFailed(all, o.log), nil
}

func runTuneTraced(t *tuneRun, w spec, o options) (map[string]float64, int, int, error) {
	l := &ladder{m: map[string]float64{}, tr: &tracer{}, seed: o.seed}
	var plain []float64
	var failed int
	var plainWall time.Duration
	sw := newStopwatch()
	sw.lap(func() {
		start := time.Now()
		plain, failed = tuneSteps(t.p, t.in.train, tracedReps*t.perRep, nil, 0)
		plainWall = time.Since(start)
	})
	l.m["client.tok_s_wall"] = float64(len(plain)*tuneBatch*tuneSeq) / plainWall.Seconds()
	var progTrace bytes.Buffer
	var traced, ttft, gaps []float64
	root := l.tr.begin("workload."+w.name, 0, "")
	_, err := withRecorder(&progTrace, func() {
		var bad int
		sw.lap(func() { traced, bad = tuneSteps(t.p, t.in.train, tracedReps*t.perRep, l.tr, root) })
		failed += bad
		l.tr.timed("pipeline.FinishTuning", root, t.finish)
		l.tr.timed("pipeline.EvalPerplexity", root, func() { t.p.EvalPerplexity(t.in.evalFrom, evalBatches) })
		ttft, gaps, bad = votedGenerate(t.p, t.in.prompts, o.seed, nil, l.tr, root)
		failed += bad
	})
	l.tr.end(root)
	if err != nil {
		return nil, 0, 0, err
	}
	attempted := len(plain) + len(traced) + len(t.in.prompts)
	l.m["host.clock_slowdown"] = median(sw.slowdown)
	l.m["obsv.trace_overhead_share"] = median(traced)/median(plain) - 1

	// The serving side of the ladder takes chat_f32's shape.
	r, err := newServeRun(workloads[0], o)
	if err != nil {
		return nil, 0, 0, err
	}
	defer r.cleanup()
	if _, err := r.setup(); err != nil {
		return nil, 0, 0, err
	}
	reqs := r.repRange(0, tracedReps)
	top, err := observe(r.send, reqs, l.tr, 0, nil)
	if err != nil {
		return nil, 0, 0, err
	}
	drain, err := r.close()
	if err != nil {
		return nil, 0, 0, err
	}
	attempted += len(top.samples)
	failed += countFailed(top.samples, o.log)
	if err := l.climb(r, reqs, top, drain); err != nil {
		return nil, 0, 0, err
	}
	l.clientMetrics(ttft, gaps, append(plain, traced...))
	fmt.Fprintf(o.log, "-- %s: iteration time predicted from the layer numbers\n", w.name)
	predicted := l.m["adapt.step_ms_p50"] + l.m["data.batch_us"]/1e3
	fmt.Fprintf(o.log, "predicted %-12s %10.3f  measured %10.3f  (%+.0f%%)\n", "iter_ms_p50", predicted, median(plain), 100*(predicted/median(plain)-1))
	if err := l.finish(o, w.name, &progTrace); err != nil {
		return nil, 0, 0, err
	}
	return l.m, attempted, failed, nil
}
