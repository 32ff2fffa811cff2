package train

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"edgellm/internal/artifact"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// Resumable tuning loop. Loop drives StepFunc iterations and, every K
// completed steps, writes a crash-safe snapshot of everything that
// determines the remainder of the run: model weights, optimizer state,
// trainer step counter, the loop's RNG state, and the loop position. A run
// killed at any point resumes from its latest snapshot bit-identically —
// the resumed loss curve and final weights match an uninterrupted run of
// the same seed byte for byte.
//
// A snapshot is an artifact (DESIGN.md, "Artifacts") of kind "ELLMSNP1": a
// JSON header, an embedded model checkpoint (itself a checksummed artifact)
// and the optimizer slot tensors in header order (tensor.WriteTo framing).
// It is written atomically, so the file on disk is always a complete
// snapshot: the previous one or the new one.
var snapshotMagic = artifact.Magic{'E', 'L', 'L', 'M', 'S', 'N', 'P', '1'}

// snapshotHeader is the JSON header of the snapshot container.
type snapshotHeader struct {
	Version     int      `json:"version"`
	Step        int      `json:"step"`
	TrainerStep int      `json:"trainer_step"`
	Optimizer   string   `json:"optimizer"`
	OptStep     int      `json:"opt_step"`
	RNGState    uint64   `json:"rng_state"`
	SlotKeys    []string `json:"slot_keys"`
}

// StepFunc runs one training iteration: sample a batch, compute the loss,
// call Trainer.Step. All randomness must come from rng (the loop snapshots
// and restores it); any other source breaks resume determinism. Returning
// an error stops the loop with state intact up to the last completed step.
type StepFunc func(step int, rng *tensor.RNG) (loss float64, err error)

// LoopConfig configures a resumable loop.
type LoopConfig struct {
	// SnapshotPath enables crash-safe snapshots when non-empty.
	SnapshotPath string
	// SnapshotEvery is the snapshot cadence in completed steps
	// (default 25 when snapshots are enabled).
	SnapshotEvery int
	// Seed seeds the loop's savable RNG.
	Seed int64
}

func (c LoopConfig) every() int {
	if c.SnapshotEvery <= 0 {
		return 25
	}
	return c.SnapshotEvery
}

// Loop is a resumable training loop over a model/trainer pair.
type Loop struct {
	Model   *nn.Model
	Trainer *Trainer
	// RNG is the loop's savable batch-sampling RNG, passed to every
	// StepFunc call.
	RNG *tensor.RNG
	Cfg LoopConfig

	step int
}

// NewLoop starts a fresh resumable loop at step 0.
func NewLoop(m *nn.Model, tr *Trainer, cfg LoopConfig) *Loop {
	return &Loop{Model: m, Trainer: tr, RNG: tensor.NewSavableRNG(cfg.Seed), Cfg: cfg}
}

// Step returns the number of completed loop steps.
func (l *Loop) Step() int { return l.step }

// Run advances the loop until `total` steps have completed, calling step
// once per iteration and snapshotting every SnapshotEvery completed steps.
// It returns the losses of the steps executed in this call. A StepFunc
// error, a snapshot write error, or a divergence abort from the Trainer
// (recovered from its panic) stops the loop with the error; completed
// steps and the last snapshot survive for a later resume.
func (l *Loop) Run(total int, step StepFunc) ([]float64, error) {
	var losses []float64
	for l.step < total {
		loss, err := l.runStep(step)
		if err != nil {
			return losses, fmt.Errorf("train: step %d: %w", l.step, err)
		}
		losses = append(losses, loss)
		l.step++
		if l.Cfg.SnapshotPath != "" && l.step%l.Cfg.every() == 0 {
			if err := l.Snapshot(); err != nil {
				return losses, fmt.Errorf("train: snapshot at step %d: %w", l.step, err)
			}
		}
	}
	return losses, nil
}

// runStep executes one StepFunc call, converting a Trainer divergence
// panic into an ordinary error so the loop degrades instead of crashing.
func (l *Loop) runStep(step StepFunc) (loss float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			var de *DivergenceError
			if e, ok := r.(*DivergenceError); ok {
				de = e
			} else {
				panic(r) // not ours — propagate
			}
			err = de
		}
	}()
	return step(l.step, l.RNG)
}

// Snapshot writes the loop state to Cfg.SnapshotPath atomically and
// records the write latency under obsv ("train.snapshot_ms").
func (l *Loop) Snapshot() error {
	start := time.Now()
	if err := artifact.WriteFile(l.Cfg.SnapshotPath, l.WriteSnapshot); err != nil {
		return err
	}
	if obs := obsv.Global(); obs != nil {
		obs.Observe("train.snapshot_ms", float64(time.Since(start))/float64(time.Millisecond))
		obs.Add("train.snapshots", 1)
	}
	return nil
}

// WriteSnapshot serialises the loop state to w in the snapshot container
// format.
func (l *Loop) WriteSnapshot(w io.Writer) error {
	rngState, ok := l.RNG.State()
	if !ok {
		return errors.New("train: loop RNG is not savable (use NewLoop)")
	}
	optStep, slots := l.Trainer.Opt.ExportState()
	keys := make([]string, 0, len(slots))
	for k := range slots {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hdr := snapshotHeader{
		Version:     1,
		Step:        l.step,
		TrainerStep: l.Trainer.StepCount(),
		Optimizer:   l.Trainer.Opt.Name(),
		OptStep:     optStep,
		RNGState:    rngState,
		SlotKeys:    keys,
	}
	aw := artifact.NewWriter(w, snapshotMagic)
	if err := aw.Header(hdr); err != nil {
		return fmt.Errorf("train: write snapshot header: %w", err)
	}
	if err := l.Model.Save(aw); err != nil {
		return fmt.Errorf("train: write snapshot model: %w", err)
	}
	for _, k := range keys {
		if _, err := slots[k].WriteTo(aw); err != nil {
			return fmt.Errorf("train: write optimizer slot %s: %w", k, err)
		}
	}
	if err := aw.Close(); err != nil {
		return fmt.Errorf("train: write snapshot footer: %w", err)
	}
	return nil
}

// ReadSnapshot reads a snapshot container from r and reconstructs a loop
// bound to tr. The caller supplies a Trainer configured with the same
// hyperparameters and optimizer type as the interrupted run; ReadSnapshot
// restores the optimizer's state tensors, the trainer's step counter, the
// model, and the RNG. The container's CRC footer is verified before any
// state is installed, so a corrupt snapshot restores nothing.
func ReadSnapshot(r io.Reader, tr *Trainer, cfg LoopConfig) (*Loop, error) {
	ar, err := artifact.NewReader(r, snapshotMagic)
	if err != nil {
		return nil, fmt.Errorf("train: not an edgellm snapshot: %w", err)
	}
	var hdr snapshotHeader
	if err := ar.Header(&hdr); err != nil {
		return nil, fmt.Errorf("train: snapshot: %w", err)
	}
	if hdr.Version != 1 {
		return nil, fmt.Errorf("train: unsupported snapshot version %d", hdr.Version)
	}
	if hdr.Optimizer != tr.Opt.Name() {
		return nil, fmt.Errorf("train: snapshot was taken with optimizer %q, trainer has %q",
			hdr.Optimizer, tr.Opt.Name())
	}
	m, err := nn.Load(ar)
	if err != nil {
		return nil, fmt.Errorf("train: read snapshot model: %w", err)
	}
	slots := make(map[string]*tensor.Tensor, len(hdr.SlotKeys))
	for _, k := range hdr.SlotKeys {
		t, err := tensor.ReadFrom(ar)
		if err != nil {
			return nil, fmt.Errorf("train: read optimizer slot %s: %w", k, err)
		}
		slots[k] = t
	}
	if err := ar.Verify(); err != nil {
		return nil, fmt.Errorf("train: snapshot: %w", err)
	}
	// Only now, with integrity proven, mutate the trainer.
	tr.Opt.ImportState(hdr.OptStep, slots)
	tr.SetStepCount(hdr.TrainerStep)
	return &Loop{
		Model:   m,
		Trainer: tr,
		RNG:     tensor.RestoreRNG(hdr.RNGState),
		Cfg:     cfg,
		step:    hdr.Step,
	}, nil
}

// Resume reconstructs a loop from the snapshot at cfg.SnapshotPath. found
// is false (with a nil error) when no snapshot exists yet, letting callers
// fall back to a fresh start.
func Resume(tr *Trainer, cfg LoopConfig) (l *Loop, found bool, err error) {
	l, err = artifact.ReadFile(cfg.SnapshotPath, func(r io.Reader) (*Loop, error) {
		return ReadSnapshot(r, tr, cfg)
	})
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	return l, err == nil, err
}
