package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"edgellm/internal/adapt"
	ag "edgellm/internal/autograd"
	"edgellm/internal/core"
	"edgellm/internal/data"
	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/hwsim"
	"edgellm/internal/nn"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// Injected-fault sentinels. A crash or an external cancel surfaces from the
// StepFunc as one of these (before any model/optimizer/RNG mutation, so the
// aborted step never happened as far as replay is concerned); the driver
// classifies them by errors.Is through Loop.Run's wrapping.
var (
	errCrash     = errors.New("fleet: injected crash")
	errSegCancel = errors.New("fleet: injected cancel")
)

// Device training hyperparameters. Every device trains the same tiny model
// family; heterogeneity comes from the hardware spec, the budget, and the
// per-device seeds, not from the recipe.
const (
	deviceCorpusLen = 512
	deviceBranching = 3
	deviceMomentum  = 0.9
	deviceLR        = 0.05
	deviceClip      = 1.0
	// recomputeCostFactor approximates the extra lower-half forward of
	// windowed checkpointing in the virtual step price (hwsim models plain
	// iterations only).
	recomputeCostFactor = 1.3
)

// basePlan is the undegraded per-device resource plan every governor starts
// from: a 2-block tuning window, a 6-bit LUC budget, recompute available,
// batch 4. The per-class budget fractions in classBudgetFrac are calibrated
// against this plan's analytic footprint.
func basePlan() govern.Plan {
	return govern.Plan{
		WindowSize:  2,
		MinWindow:   1,
		BudgetBits:  6,
		MinBits:     2,
		MaxSegments: 2,
		Batch:       4,
	}
}

// newSGD is the optimizer every device trains with.
func newSGD() *train.SGD { return train.NewSGD(deviceMomentum, 0) }

// planEstimator returns the admission estimator for a device: the analytic
// footprint of one tuning iteration under a plan, train.WindowSpec priced
// by train.EstimateMemory. extraOptBlocks is the number of previously
// visited blocks beyond the current window whose optimizer state (SGD
// momentum) stays resident — the deterministic accumulation the governor
// re-admits against at every epoch boundary. It is pure in the plan, so the
// rung walk is byte-deterministic.
//
// Two simplifications the class budgets (classBudgetFrac × this estimate)
// were calibrated with stay until a PR that re-pins the fleet report: only
// the window's weight matrices count as trainable, and compressed blocks
// are priced at the bare bit-width, without the packed format's scales.
func planEstimator(extraOptBlocks int) govern.Estimator {
	cfg := deviceModelConfig()
	blockElems := train.BlockWeightElems(cfg)
	optBytes := newSGD().BytesPerElement()
	return func(p govern.Plan) int64 {
		spec := train.WindowSpec(cfg, p.Batch, deviceSeq, p.WindowSize, p.Segments,
			train.PerLayer(cfg.Layers, p.BudgetBits), nil, optBytes)
		spec.TrainableElems = int64(p.WindowSize) * blockElems
		spec.OptElems = int64(p.WindowSize+extraOptBlocks) * blockElems
		spec.PackedScales = false
		return train.EstimateMemory(spec).Total()
	}
}

// costKey memoises the virtual iteration price per distinct configuration.
type costKey struct {
	lo, hi, batch, bits int
	recompute           bool
}

// devRun is the live state of one simulated device.
type devRun struct {
	cfg  Config
	spec DeviceSpec
	gov  *govern.Governor

	loop   *train.Loop
	tr     *train.Trainer
	tuner  *adapt.Tuner
	corpus *data.Corpus

	plan    govern.Plan
	visited map[int]bool
	snap    []byte // latest epoch-boundary snapshot (nil before the first)
	left    bool

	// stallDone marks stall steps already killed by the watchdog, so the
	// driver stops splitting segments (and re-arming) at them.
	stallDone map[int]bool
	segCtx    context.Context

	sched     *hwsim.SearchedScheduler
	costCache map[costKey]float64

	vt        float64 // virtual clock, seconds
	lastLoss  float64
	execSteps int // steps executed, including crash replays

	converged, drained, failed bool
	errText                    string

	crashes, restarts, stallsKilled int
	retries, cancels                int
	leaves, rejoins                 int
	trims                           int

	seq    int
	events []Event
}

// RunDevice simulates one device to completion (or drain, or failure) and
// returns its result. It never panics: a device that dies unexpectedly
// becomes a Failed result, mirroring the experiment runner's isolation.
func RunDevice(ctx context.Context, cfg Config, spec DeviceSpec) (res *DeviceResult) {
	cfg = cfg.withDefaults()
	d := &devRun{
		cfg:       cfg,
		spec:      spec,
		visited:   map[int]bool{},
		stallDone: map[int]bool{},
		sched:     hwsim.NewSearchedScheduler(),
		costCache: map[costKey]float64{},
	}
	defer func() {
		if r := recover(); r != nil {
			d.failed, d.errText = true, fmt.Sprintf("panic: %v", r)
			res = d.result()
		}
	}()
	d.run(ctx)
	return d.result()
}

// run is the device driver loop.
func (d *devRun) run(ctx context.Context) {
	d.vt = d.spec.JoinSec
	d.event("join", d.spec.Class)

	d.gov = govern.New(govern.Budget{MemoryBytes: d.spec.BudgetBytes})
	d.plan = d.gov.Admit(d.spec.ID, "admission", basePlan(), planEstimator(0))
	d.corpus = data.MarkovCorpus(d.spec.TrainSeed, deviceModelConfig().Vocab, deviceCorpusLen, deviceBranching)
	if err := d.fresh(); err != nil {
		d.fail(err)
		return
	}

	for d.loop.Step() < d.cfg.Steps {
		if ctx.Err() != nil {
			d.drained = true
			d.event("drained", ctx.Err().Error())
			return
		}

		// Split the segment at the next pending stall so the watchdog is
		// armed only for the exact step that will hang: unarmed segments can
		// never be killed spuriously by host-scheduling jitter, which keeps
		// the report byte-identical at any GOMAXPROCS and under -race.
		start := d.loop.Step()
		epochEnd := min(d.cfg.Steps, (start/d.cfg.EpochSteps+1)*d.cfg.EpochSteps)
		target := epochEnd
		armed := false
		if s, ok := d.nextStall(start, epochEnd); ok {
			if s == start {
				target, armed = s+1, true
			} else {
				target = s
			}
		}
		runCtx := ctx
		var wd *govern.Watchdog
		if armed {
			runCtx, wd = govern.Budget{HeartbeatTimeout: d.cfg.StallTimeout}.Watch(ctx, d.spec.ID)
			wd.Beat() // arm the heartbeat bound before the hang
		}
		d.segCtx = runCtx
		d.tr.Heartbeat = wd.Beat // nil-safe method value

		_, err := d.loop.Run(target, d.step)
		wd.Stop()

		switch {
		case err == nil:
			if d.loop.Step()%d.cfg.EpochSteps == 0 || d.loop.Step() == d.cfg.Steps {
				if e := d.epochBoundary(); e != nil {
					d.fail(e)
					return
				}
			}
		case errors.Is(err, errCrash):
			d.crashes++
			d.vt += crashRestartSec
			d.event("crash", fmt.Sprintf("at step %d", d.loop.Step()))
			if e := d.restore(); e != nil {
				d.fail(e)
				return
			}
			d.restarts++
			d.event("restart", fmt.Sprintf("from step %d", d.loop.Step()))
		case errors.Is(err, errSegCancel):
			d.cancels++
			d.vt += cancelAbortSec
			d.event("cancel", fmt.Sprintf("at step %d", d.loop.Step()))
			if e := d.restore(); e != nil {
				d.fail(e)
				return
			}
			d.restarts++
			d.event("restart", fmt.Sprintf("from step %d", d.loop.Step()))
		case ctx.Err() != nil:
			d.drained = true
			d.event("drained", ctx.Err().Error())
			return
		case wd != nil && wd.Err() != nil:
			d.stallsKilled++
			d.vt += stallKillSec
			d.stallDone[target-1] = true
			d.event("stall-killed", fmt.Sprintf("at step %d", target-1))
			if e := d.restore(); e != nil {
				d.fail(e)
				return
			}
			d.restarts++
			d.event("restart", fmt.Sprintf("from step %d", d.loop.Step()))
		case core.IsRetryable(err):
			d.retries++
			d.vt += core.Backoff(0, 1).Seconds()
			d.event("retry", fmt.Sprintf("at step %d", d.loop.Step()))
		default:
			d.fail(err)
			return
		}
	}
	d.converged = true
	d.event("converged", fmt.Sprintf("loss %.4f", d.lastLoss))
}

// step is the device's StepFunc: dispatch any injected fault for this step,
// then run one adaptive-tuning iteration and charge its virtual price.
// Faults surface before any mutation, so a faulted step replays cleanly.
func (d *devRun) step(step int, rng *tensor.RNG) (float64, error) {
	if err := d.segCtx.Err(); err != nil {
		return 0, err
	}
	switch d.spec.Faults.At(step) {
	case fault.ModePanic:
		if d.spec.Faults.Fire(step) != "" {
			return 0, errCrash
		}
	case fault.ModeCancel:
		if d.spec.Faults.Fire(step) != "" {
			return 0, errSegCancel
		}
	case fault.ModeFlaky:
		if d.spec.Faults.Fire(step) != "" {
			return 0, &fault.TransientError{Msg: fmt.Sprintf("%s step %d", d.spec.ID, step)}
		}
	case fault.ModeStall:
		if d.spec.Faults.Fire(step) != "" {
			// Blocks until the armed watchdog kills the segment.
			return 0, fault.Stall(d.segCtx, d.spec.ID)
		}
	}
	inputs, targets := d.corpus.Batch(rng, d.plan.Batch, deviceSeq)
	loss, lo, hi := d.tuner.Step(d.tr, inputs, targets)
	for b := lo; b <= hi; b++ {
		d.visited[b] = true
	}
	d.vt += d.stepCost(lo, hi)
	d.lastLoss = loss
	d.execSteps++
	return loss, nil
}

// epochBoundary runs the end-of-epoch protocol: snapshot to memory, trim
// the shared arena, churn (leave + rejoin through the snapshot), and
// re-admission against the grown optimizer state.
func (d *devRun) epochBoundary() error {
	stepNow := d.loop.Step()
	var buf bytes.Buffer
	if err := d.loop.WriteSnapshot(&buf); err != nil {
		return fmt.Errorf("fleet: snapshot at step %d: %w", stepNow, err)
	}
	d.snap = buf.Bytes()
	ag.ActivePool().Trim()
	d.trims++
	d.event("epoch", fmt.Sprintf("step %d snapshot %dB", stepNow, len(d.snap)))

	epoch := stepNow / d.cfg.EpochSteps
	if !d.left && d.spec.LeaveEpoch > 0 && epoch >= d.spec.LeaveEpoch && stepNow < d.cfg.Steps {
		d.left = true
		d.leaves++
		d.event("leave", fmt.Sprintf("gap %.0fs", d.spec.GapSec))
		d.vt += d.spec.GapSec
		// Rejoin = restore from the snapshot just written: a pure round trip
		// (zero replay steps), so churn cannot perturb the training result.
		if err := d.restore(); err != nil {
			return err
		}
		d.rejoins++
		d.event("rejoin", "")
	}

	if stepNow < d.cfg.Steps {
		extra := len(d.visited) - d.plan.WindowSize
		if extra < 0 {
			extra = 0
		}
		p := d.gov.Admit(d.spec.ID, fmt.Sprintf("step@%d", stepNow), d.plan, planEstimator(extra))
		if p != d.plan {
			d.event("degrade", fmt.Sprintf("window %d→%d bits %g→%g recompute %v batch %d→%d",
				d.plan.WindowSize, p.WindowSize, d.plan.BudgetBits, p.BudgetBits, p.Recompute,
				d.plan.Batch, p.Batch))
			if err := d.applyPlan(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// fresh builds the device's training state from scratch (initial start, or
// a crash before the first snapshot — the replay-from-zero path).
func (d *devRun) fresh() error {
	g := tensor.NewRNG(d.spec.TrainSeed)
	m := nn.NewModel(deviceModelConfig(), g)
	d.tr = train.NewTrainer(newSGD(), deviceLR, deviceClip)
	d.loop = train.NewLoop(m, d.tr, train.LoopConfig{Seed: d.spec.TrainSeed + 1})
	return d.rebuildTuner()
}

// restore rebuilds the training state from the latest in-memory snapshot,
// falling back to fresh when none exists yet.
func (d *devRun) restore() error {
	if d.snap == nil {
		return d.fresh()
	}
	tr := train.NewTrainer(newSGD(), deviceLR, deviceClip)
	loop, err := train.ReadSnapshot(bytes.NewReader(d.snap), tr, train.LoopConfig{Seed: d.spec.TrainSeed + 1})
	if err != nil {
		return fmt.Errorf("fleet: restore %s: %w", d.spec.ID, err)
	}
	d.tr, d.loop = tr, loop
	return d.rebuildTuner()
}

// rebuildTuner constructs the tuner for the current plan, aligned to the
// loop's step so the window schedule continues exactly where it was.
func (d *devRun) rebuildTuner() error {
	t, err := adapt.NewTuner(d.loop.Model, adapt.TunerConfig{
		WindowSize: d.plan.WindowSize,
		Strategy:   adapt.StrategySliding,
		Segments:   d.plan.Segments,
	})
	if err != nil {
		return fmt.Errorf("fleet: tuner for %s: %w", d.spec.ID, err)
	}
	t.SetIteration(d.loop.Step())
	d.tuner = t
	return nil
}

// applyPlan installs a degraded plan on the live tuner.
func (d *devRun) applyPlan(p govern.Plan) error {
	if p.WindowSize != d.plan.WindowSize {
		if err := d.tuner.SetWindowSize(p.WindowSize); err != nil {
			return fmt.Errorf("fleet: apply plan for %s: %w", d.spec.ID, err)
		}
	}
	d.tuner.Cfg.Segments = p.Segments
	d.plan = p
	return nil
}

// nextStall returns the first unkilled scheduled stall in [from, to).
func (d *devRun) nextStall(from, to int) (int, bool) {
	for s := from; s < to; s++ {
		if d.spec.Faults.At(s) == fault.ModeStall && !d.stallDone[s] {
			return s, true
		}
	}
	return 0, false
}

// stepCost prices one executed iteration on the device's perturbed hardware
// via hwsim's analytic model, memoised per configuration.
func (d *devRun) stepCost(lo, hi int) float64 {
	rec := d.plan.Recompute && hi-lo+1 >= 2
	// The bits rung moves in whole bits (basePlan's 6 down to 2).
	key := costKey{lo: lo, hi: hi, batch: d.plan.Batch, bits: int(d.plan.BudgetBits), recompute: rec}
	if c, ok := d.costCache[key]; ok {
		return c
	}
	spec := hwsim.IterationSpec{
		Cfg: deviceModelConfig(), Batch: key.batch, Seq: deviceSeq,
		WindowLo: lo, WindowHi: hi,
	}.WithCompression(hwsim.LayerCompression{Bits: key.bits})
	c := hwsim.IterationCost(d.spec.Device, d.sched, spec).TotalSec
	if rec {
		c *= recomputeCostFactor
	}
	d.costCache[key] = c
	return c
}

// fail marks the device failed with the error.
func (d *devRun) fail(err error) {
	d.failed = true
	d.errText = err.Error()
	d.event("failed", err.Error())
}

// event appends one virtual-time log entry.
func (d *devRun) event(kind, detail string) {
	d.events = append(d.events, Event{
		TSec:   d.vt,
		Device: d.spec.ID,
		Seq:    d.seq,
		Kind:   kind,
		Detail: detail,
	})
	d.seq++
}

// result assembles the device's report row.
func (d *devRun) result() *DeviceResult {
	r := &DeviceResult{
		ID:          d.spec.ID,
		Index:       d.spec.Index,
		Class:       d.spec.Class,
		BudgetBytes: d.spec.BudgetBytes,
		Converged:   d.converged,
		Drained:     d.drained,
		Failed:      d.failed,
		Err:         d.errText,
		Steps:       0,
		ExecSteps:   d.execSteps,
		FinalLoss:   d.lastLoss,
		Plan:        d.plan,
		RungCounts:  d.gov.RungCounts(),
		BudgetUnmet: len(d.gov.Unmet()) > 0,
		Crashes:     d.crashes, Restarts: d.restarts, StallsKilled: d.stallsKilled,
		Retries: d.retries, Cancels: d.cancels,
		Leaves: d.leaves, Rejoins: d.rejoins,
		Trims:  d.trims,
		Events: d.events,
	}
	if d.loop != nil {
		r.Steps = d.loop.Step()
	}
	if d.converged {
		r.ConvergeSec = d.vt
		r.Fingerprint = fingerprint(d.loop.Model, d.lastLoss)
	}
	return r
}

// fingerprint hashes every model parameter (exact float32 bits, in Params
// order) plus the final loss into a compact identity: two runs agree on it
// iff they produced bit-identical weights and loss.
func fingerprint(m *nn.Model, finalLoss float64) string {
	h := fnv.New64a()
	var b [8]byte
	for _, p := range m.Params() {
		h.Write([]byte(p.Name))
		for _, v := range p.Value.Data.Data {
			binary.LittleEndian.PutUint32(b[:4], math.Float32bits(v))
			h.Write(b[:4])
		}
	}
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(finalLoss))
	h.Write(b[:])
	return fmt.Sprintf("%016x", h.Sum64())
}
