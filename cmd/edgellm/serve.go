package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"edgellm/internal/fault"
	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

// cmdServe runs the hardened multi-tenant HTTP inference server: bounded
// admission with 429 load shedding, per-tenant caps, analytic KV-memory
// admission, per-request deadlines, a per-stream stall watchdog, an
// adapter registry with CRC integrity checking, and graceful SIGTERM drain
// that verifies the KV arena empties before exit. -fault threads
// deterministic chaos through the serving path for the CI soak.
func cmdServe(args []string) (err error) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "HTTP listen address (use :0 for an ephemeral port)")
	ckpt := fs.String("ckpt", "", "model checkpoint to serve (empty: fresh seeded model from the -dim/-layers/... flags)")
	dim := fs.Int("dim", 64, "fresh-model embedding dimension")
	layers := fs.Int("layers", 2, "fresh-model transformer layers")
	heads := fs.Int("heads", 4, "fresh-model attention heads")
	hidden := fs.Int("hidden", 128, "fresh-model MLP hidden dimension")
	vocab := fs.Int("vocab", 256, "fresh-model vocabulary size")
	maxSeq := fs.Int("maxseq", 128, "fresh-model maximum sequence length")
	seed := fs.Int64("seed", 42, "fresh-model init seed")
	slots := fs.Int("slots", 4, "decoder slot capacity (concurrent streams per step)")
	queue := fs.Int("queue", 8, "bounded wait queue beyond the slots; overflow sheds with 429")
	tenantSlots := fs.Int("tenant-slots", 0, "per-tenant in-flight request cap (0 = unlimited)")
	deadline := fs.Duration("deadline", 30*time.Second, "default per-request deadline (header X-Edgellm-Deadline-Ms overrides; 0 = none)")
	stallTimeout := fs.Duration("stall-timeout", 10*time.Second, "kill streams whose token production stops for this long (0 = off)")
	drainTimeout := fs.Duration("drain-timeout", 10*time.Second, "grace for in-flight streams on SIGTERM before cancellation")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
	memBudget := fs.String("mem-budget", "", "KV-memory admission budget: bytes with optional KiB/MiB/GiB suffix (empty = no memory admission)")
	adapters := fs.String("adapters", "", "adapter registry directory (empty = base model only)")
	maxAdapters := fs.Int("max-adapters", 8, "LRU bound on resident adapters")
	bitsSpec := fs.String("bits", "", `pack block weights and serve through the fused kernels: "2".."8", "nf4", or "luc@<avg-bits>"`)
	faultSpec := fs.String("fault", "", `chaos seam: comma-separated mode=ID pairs over request ids, modes fail|panic|cancel|stall (e.g. "panic=R3,cancel=R7")`)
	telemetryAddr := fs.String("telemetry-addr", "", "serve live telemetry on this host:port (/metrics, /debug/vars, /debug/pprof)")
	accessLogPath := fs.String("access-log", "", "append one JSONL record per request to this file (analysable offline with `edgellm telemetry serve-report`)")
	sloSpec := fs.String("slo", "", `SLO objectives, comma-separated (e.g. "p99_ttft_ms=500,availability=0.999"); burn rates surface on /statusz, /metrics, and serve.slo_* — reported, never enforced`)
	sloInterval := fs.Duration("slo-interval", 5*time.Second, "SLO burn-rate sampling interval")
	tracePath := fs.String("trace", "", "write request span timelines as Chrome trace-event JSON to this file (open in chrome://tracing or Perfetto)")
	metricsPath := fs.String("metrics", "", "stream telemetry events as JSONL to this file")
	fs.Parse(args)

	var m *nn.Model
	if *ckpt != "" {
		var err error
		if m, err = nn.LoadFile(*ckpt); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: loaded checkpoint %s\n", *ckpt)
	} else {
		cfg := nn.Config{
			Vocab: *vocab, Dim: *dim, Heads: *heads, Layers: *layers,
			Hidden: *hidden, MaxSeq: *maxSeq,
		}
		if err := cfg.Validate(); err != nil {
			return err
		}
		m = nn.NewModel(cfg, tensor.NewRNG(*seed))
		fmt.Fprintf(os.Stderr, "serve: fresh model dim=%d layers=%d heads=%d hidden=%d vocab=%d maxseq=%d seed=%d\n",
			*dim, *layers, *heads, *hidden, *vocab, *maxSeq, *seed)
	}

	var pm *nn.PackedModel
	if *bitsSpec != "" {
		specs, desc, err := resolvePackSpecs(m, *bitsSpec)
		if err != nil {
			return err
		}
		wpool := tensor.NewPool()
		nn.AdoptWeights(m, wpool)
		if pm, err = nn.PackModel(m, specs, wpool); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: packed weights (%s): %s float32 released → %s resident\n",
			desc, fmtB(pm.ReleasedBytes()), fmtB(pm.StorageBytes()))
	}

	rec, finishObsv, err := setupObsv(obsvConfig{
		Tool: "serve", MetricsPath: *metricsPath, TracePath: *tracePath,
		TelemetryAddr: *telemetryAddr, Always: true,
	})
	if err != nil {
		return err
	}
	defer closeObsv(finishObsv, &err)

	cfg := serve.ServerConfig{
		MaxQueue:        *queue,
		TenantSlots:     *tenantSlots,
		DefaultDeadline: *deadline,
		StallTimeout:    *stallTimeout,
		DrainTimeout:    *drainTimeout,
		RetryAfter:      *retryAfter,
	}
	if *memBudget != "" {
		bytes, err := parseMemBudget(*memBudget)
		if err != nil {
			return err
		}
		cfg.Budget = govern.Budget{MemoryBytes: bytes}
		fmt.Fprintf(os.Stderr, "serve: KV admission budget %s\n", fmtB(bytes))
	}
	if *adapters != "" {
		cfg.Registry = serve.NewRegistry(*adapters, *maxAdapters)
		fmt.Fprintf(os.Stderr, "serve: adapter registry %s (max %d resident)\n", *adapters, *maxAdapters)
	}
	if *faultSpec != "" {
		inj, err := fault.ParseSpec(*faultSpec)
		if err != nil {
			return err
		}
		cfg.Injector = inj
		fmt.Fprintf(os.Stderr, "serve: injecting faults: %s\n", inj.Describe())
	}
	var accessLog *serve.AccessLog
	if *accessLogPath != "" {
		f, err := os.OpenFile(*accessLogPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: open access log: %w", err)
		}
		accessLog = serve.NewAccessLog(f)
		cfg.AccessLog = accessLog
		fmt.Fprintf(os.Stderr, "serve: access log %s\n", *accessLogPath)
	}
	var slo *obsv.SLOTracker
	if *sloSpec != "" {
		objs, err := obsv.ParseSLOSpec(*sloSpec)
		if err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		slo = obsv.NewSLOTracker(rec, objs, obsv.DefaultSLOWindows)
		cfg.SLO = slo
		slo.Start(*sloInterval)
		for _, o := range objs {
			fmt.Fprintf(os.Stderr, "serve: tracking SLO %s\n", o.Name)
		}
	}

	pool := tensor.NewPool()
	dec := nn.NewBatchDecoder(m, *slots, pool)
	defer dec.Close()
	if pm != nil {
		if err := dec.SetPacked(pm); err != nil {
			return fmt.Errorf("serve: SetPacked: %w", err)
		}
	}
	srv := serve.NewServer(dec, cfg)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	fmt.Fprintf(os.Stderr, "serve: listening on http://%s (%d slots + %d queue)\n",
		ln.Addr(), *slots, *queue)

	errCh := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: http server: %w", err)
	case <-ctx.Done():
	}
	stopSignals()

	fmt.Fprintf(os.Stderr, "serve: draining (up to %s for in-flight streams)\n", *drainTimeout)
	drainErr := srv.Drain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout+5*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	slo.Stop() // final burn-rate sample; nil-safe
	if accessLog != nil {
		if err := accessLog.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "serve: access log error: %v\n", err)
		}
	}
	if drainErr != nil {
		return fmt.Errorf("serve: drain: %w", drainErr)
	}
	fmt.Fprintf(os.Stderr, "serve: drained cleanly: arena active bytes 0, %d requests served, %d shed, %d stalled\n",
		rec.CounterTotal("serve.requests"), rec.CounterTotal("serve.shed"),
		rec.CounterTotal("serve.stalled"))
	return nil
}
