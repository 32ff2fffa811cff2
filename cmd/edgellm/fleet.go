package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	ag "edgellm/internal/autograd"
	"edgellm/internal/fleet"
	"edgellm/internal/tensor"
)

// cmdFleet simulates a fleet of heterogeneous virtual edge devices running
// Edge-LLM adaptation under churn and injected chaos, and prints the fleet
// report. The report is byte-identical for identical -devices/-seed/-churn/
// -fault/-steps/-epoch flags at any -parallel and any GOMAXPROCS; SIGTERM
// drains the fleet gracefully and the command proves the shared tensor
// arena released every pooled byte before exiting.
func cmdFleet(args []string) (err error) {
	fs := flag.NewFlagSet("fleet", flag.ExitOnError)
	devices := fs.Int("devices", 64, "fleet size")
	seed := fs.Int64("seed", 42, "fleet seed; derives every per-device stream (spec, training, faults, churn)")
	steps := fs.Int("steps", 24, "adaptation-step budget per device")
	epoch := fs.Int("epoch", 8, "snapshot + pool-trim + re-admission cadence, in steps")
	churn := fs.Float64("churn", 0, "probability in [0,1] that a device leaves mid-run and rejoins after a virtual gap")
	faultRate := fs.Float64("fault", 0, "chaos intensity in [0,1]: each device plans ~3*rate composed crash/stall/transient/cancel faults")
	parallel := fs.Int("parallel", 0, "device worker pool (0 = GOMAXPROCS; the report is identical at any value)")
	stallTimeout := fs.Duration("stall-timeout", 2*time.Second, "real-time watchdog bound for killing an injected stall (virtual cost is fixed regardless)")
	jsonOut := fs.Bool("json", false, "print the report as indented JSON instead of text")
	events := fs.Bool("events", false, "retain the merged virtual-time event timeline in the report")
	verifyN := fs.Int("verify", 0, "re-run up to N chaos-surviving devices solo and verify bit-identical weights+loss")
	metricsPath := fs.String("metrics", "", "stream telemetry events (fleet.* counters + fleet summary record) as JSONL to this file")
	fs.Parse(args)

	// The shared arena is what the drain proof is about: every device
	// allocates its tapes from it, and a fully drained fleet must hand every
	// byte back.
	ag.SetPool(tensor.NewPool())
	defer ag.SetPool(nil)

	rec, finishObsv, err := setupObsv(obsvConfig{Tool: "fleet", MetricsPath: *metricsPath, Always: true})
	if err != nil {
		return err
	}
	defer closeObsv(finishObsv, &err)

	cfg := fleet.Config{
		Devices:      *devices,
		Seed:         *seed,
		Steps:        *steps,
		EpochSteps:   *epoch,
		Churn:        *churn,
		FaultRate:    *faultRate,
		Parallel:     *parallel,
		StallTimeout: *stallTimeout,
		KeepEvents:   *events,
	}

	// Ctrl-C / SIGTERM drains: every device stops at its next step boundary,
	// completed devices keep their results, and the partial report is printed.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	start := time.Now()
	rep, runErr := fleet.Run(ctx, cfg)
	wall := time.Since(start).Round(time.Millisecond)
	rec.EmitFleet(rep.FleetRecord())
	rec.EmitSummary()

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return fmt.Errorf("fleet: marshal report: %w", err)
		}
		fmt.Printf("%s\n", out)
	} else {
		fmt.Print(rep.String())
	}
	fmt.Fprintf(os.Stderr, "fleet: simulated %d devices in %s wall time\n", rep.Devices, wall)

	// Drain proof: whether the run completed or was drained mid-flight,
	// every pooled byte must be back in the arena's free lists.
	if leaked := fleet.PoolInUseBytes(); leaked != 0 {
		return fmt.Errorf("fleet: drain proof failed: pool still holds %s after all devices stopped", fmtB(leaked))
	}
	fmt.Fprintln(os.Stderr, "fleet: drain proof: pool holds 0 B after run")

	if runErr != nil {
		// A graceful drain with no leaked bytes is a successful outcome; the
		// report above says how far the fleet got.
		fmt.Fprintf(os.Stderr, "fleet: drained early (%v): %d converged, %d drained, %d failed\n",
			runErr, rep.Converged, rep.Drained, rep.Failed)
		return nil
	}

	if *verifyN > 0 {
		if err := verifyChaosInvariance(ctx, cfg, rep, *verifyN); err != nil {
			return err
		}
	}
	if rep.Failed > 0 {
		return fmt.Errorf("fleet: %d of %d devices failed", rep.Failed, rep.Devices)
	}
	return nil
}

// verifyChaosInvariance re-runs up to n chaos-surviving devices with their
// fault schedules and churn stripped, and checks the solo runs reproduce
// the chaos runs' fingerprints and losses bit-exactly.
func verifyChaosInvariance(ctx context.Context, cfg fleet.Config, rep *fleet.Report, n int) error {
	specs := fleet.Specs(cfg)
	checked := 0
	for _, r := range rep.DeviceResults {
		if checked >= n {
			break
		}
		if !r.Converged || r.Crashes+r.StallsKilled+r.Retries+r.Cancels+r.Leaves == 0 {
			continue
		}
		solo := fleet.RunDevice(ctx, cfg, specs[r.Index].Solo())
		if !solo.Converged {
			return fmt.Errorf("fleet: verify %s: solo run did not converge: %s", r.ID, solo.Err)
		}
		if solo.Fingerprint != r.Fingerprint || solo.FinalLoss != r.FinalLoss {
			return fmt.Errorf("fleet: verify %s: chaos run (crashes %d, stalls %d, retries %d, cancels %d, leaves %d) "+
				"diverged from solo: fingerprint %s vs %s, loss %v vs %v",
				r.ID, r.Crashes, r.StallsKilled, r.Retries, r.Cancels, r.Leaves,
				r.Fingerprint, solo.Fingerprint, r.FinalLoss, solo.FinalLoss)
		}
		checked++
		fmt.Fprintf(os.Stderr, "fleet: verify %s: solo run matches chaos run (fingerprint %s, crashes %d, stalls %d, leaves %d)\n",
			r.ID, r.Fingerprint, r.Crashes, r.StallsKilled, r.Leaves)
	}
	if checked == 0 {
		fmt.Fprintln(os.Stderr, "fleet: verify: no chaos-surviving devices to check (raise -fault or -churn)")
		return nil
	}
	fmt.Fprintf(os.Stderr, "fleet: verify: %d chaos survivors bit-identical to their solo runs\n", checked)
	return nil
}
