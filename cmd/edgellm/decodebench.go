package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"edgellm/internal/fault"
	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

// cmdDecodeBench exercises the continuous-batching decode path end to end:
// it builds a fresh model, pushes a workload of concurrent generation
// streams through the serve scheduler, and reports throughput plus arena
// accounting. With -verify (the default) every surviving stream is checked
// token-for-token against a solo single-sequence decode — the
// batching-is-invisible contract — and the command fails if the KV arena
// does not drain back to zero bytes. -fault cancels chosen streams
// mid-generation through the fault injector, which is how CI's decode-smoke
// job proves cancelled slots are reclaimed without disturbing survivors.
func cmdDecodeBench(args []string) error {
	fs := flag.NewFlagSet("decode-bench", flag.ExitOnError)
	slots := fs.Int("slots", 8, "decoder slot capacity (concurrent sequences per step)")
	streams := fs.Int("streams", 16, "generation requests to submit (excess queues FIFO)")
	tokens := fs.Int("tokens", 32, "continuation tokens per stream")
	promptLen := fs.Int("prompt-len", 4, "prompt tokens per stream")
	dim := fs.Int("dim", 256, "model embedding dimension")
	layers := fs.Int("layers", 4, "transformer layers")
	heads := fs.Int("heads", 8, "attention heads")
	hidden := fs.Int("hidden", 768, "MLP hidden dimension")
	vocab := fs.Int("vocab", 2048, "vocabulary size")
	temp := fs.Float64("temp", 0.8, "sampling temperature (0 = greedy)")
	seed := fs.Int64("seed", 42, "model and sampling seed")
	bitsSpec := fs.String("bits", "", `pack block weights and decode through the fused kernels: "2".."8" (uniform width), "nf4" (normal-float codebook), or "luc@<avg-bits>" (per-layer LUC assignment under an average-bit budget, e.g. luc@3.5); empty decodes float32`)
	faultSpec := fs.String("fault", "", `cancel streams mid-generation: comma-separated mode=ID pairs over stream ids S0..S<n-1>, e.g. "fail=S3,fail=S7" (use mode fail)`)
	verify := fs.Bool("verify", true, "check surviving streams token-for-token against solo decodes and require the arena to drain")
	compare := fs.Bool("compare", false, "also run the workload one stream at a time and report the batch speedup")
	jsonOut := fs.Bool("json", false, "emit the summary as one JSON object on stdout")
	fs.Parse(args)

	if *streams < 1 || *slots < 1 || *tokens < 1 || *promptLen < 1 {
		return fmt.Errorf("decode-bench: streams, slots, tokens, prompt-len must all be ≥ 1")
	}
	var inj *fault.Injector
	if *faultSpec != "" {
		var err error
		if inj, err = fault.ParseSpec(*faultSpec); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "decode-bench: injecting faults: %s\n", inj.Describe())
	}

	cfg := nn.Config{
		Vocab: *vocab, Dim: *dim, Heads: *heads, Layers: *layers,
		Hidden: *hidden, MaxSeq: *promptLen + *tokens,
	}
	m := nn.NewModel(cfg, tensor.NewRNG(*seed))

	// With -bits, the float32 block weights are adopted into a dedicated
	// weight pool, packed, and released: the packed representation becomes
	// the only resident copy, and the pool's live-byte drop is the
	// measurable memory win the bit budget promised.
	var pm *nn.PackedModel
	var packDesc string
	var weightPoolDrop int64
	if *bitsSpec != "" {
		wpool := tensor.NewPool()
		adopted := nn.AdoptWeights(m, wpool)
		specs, desc, err := resolvePackSpecs(m, *bitsSpec)
		if err != nil {
			return err
		}
		before := wpool.Stats().BytesInUse
		if pm, err = nn.PackModel(m, specs, wpool); err != nil {
			return err
		}
		weightPoolDrop = before - wpool.Stats().BytesInUse
		if weightPoolDrop != pm.ReleasedBytes() {
			return fmt.Errorf("decode-bench: weight pool dropped %d bytes but PackModel released %d",
				weightPoolDrop, pm.ReleasedBytes())
		}
		packDesc = desc
		fmt.Fprintf(os.Stderr, "decode-bench: packed %s: %s float32 → %s resident (pool drop %s of %s adopted)\n",
			pm.Describe(), fmtB(pm.ReleasedBytes()), fmtB(pm.StorageBytes()), fmtB(weightPoolDrop), fmtB(adopted))
	}

	reqs := make([]serve.Request, *streams)
	for i := range reqs {
		prompt := make([]int, *promptLen)
		for j := range prompt {
			prompt[j] = (i*7 + j*13 + 1) % cfg.Vocab
		}
		reqs[i] = serve.Request{
			ID:     fmt.Sprintf("S%d", i),
			Prompt: prompt,
			Cfg: nn.SampleConfig{
				Temperature: *temp, TopK: 40, MaxTokens: *tokens, Seed: *seed + int64(i),
			},
		}
	}

	run, err := runDecodeWorkload(m, pm, reqs, *slots, *tokens/2, inj)
	if err != nil {
		return err
	}

	verified := 0
	if *verify {
		if run.arenaActiveAfter != 0 || run.activeSlotsAfter != 0 {
			return fmt.Errorf("decode-bench: arena did not drain: %d slots / %d bytes still active",
				run.activeSlotsAfter, run.arenaActiveAfter)
		}
		for i, res := range run.results {
			if res.Err != nil {
				continue // cancelled by injection; survivors are what must match
			}
			soloDec := nn.NewDecoder(m)
			if pm != nil {
				if err := soloDec.SetPacked(pm); err != nil {
					return fmt.Errorf("decode-bench: solo packed decoder: %w", err)
				}
			}
			solo, err := soloDec.Generate(reqs[i].Prompt, reqs[i].Cfg)
			soloDec.Close()
			if err != nil {
				return fmt.Errorf("decode-bench: solo reference for %s: %w", res.ID, err)
			}
			if !intsEqual(res.Tokens, solo) {
				return fmt.Errorf("decode-bench: stream %s diverged from solo decode:\n  batched: %v\n  solo:    %v",
					res.ID, res.Tokens, solo)
			}
			verified++
		}
	}

	var speedup float64
	if *compare {
		soloRun, err := runDecodeWorkload(m, pm, reqs, 1, *tokens/2, inj)
		if err != nil {
			return err
		}
		if run.wall > 0 {
			speedup = float64(soloRun.wall) / float64(run.wall)
		}
	}

	tokPerSec := float64(run.tokensFed) / run.wall.Seconds()
	if *jsonOut {
		out := map[string]any{
			"streams": *streams, "slots": *slots, "tokens_per_stream": *tokens,
			"prompt_len": *promptLen, "dim": *dim, "layers": *layers,
			"tokens_fed": run.tokensFed, "steps": run.steps,
			"wall_ms":         float64(run.wall) / float64(time.Millisecond),
			"tok_per_sec":     tokPerSec,
			"arena_cap_bytes": run.arenaCap, "arena_active_after": run.arenaActiveAfter,
			"cancelled": run.cancelled, "verified": verified,
			"kernel": tensor.KernelPath(),
		}
		if speedup > 0 {
			out["batch_speedup"] = speedup
		}
		if pm != nil {
			out["packed_spec"] = packDesc
			out["weight_bytes_f32"] = pm.ReleasedBytes()
			out["weight_bytes_packed"] = pm.StorageBytes()
			out["weight_pool_drop_bytes"] = weightPoolDrop
			out["weight_bytes_ratio"] = float64(pm.StorageBytes()) / float64(pm.ReleasedBytes())
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Printf("decode-bench: model dim=%d layers=%d heads=%d hidden=%d vocab=%d maxseq=%d\n",
		*dim, *layers, *heads, *hidden, *vocab, cfg.MaxSeq)
	fmt.Printf("workload: %d streams × (%d prompt + %d continuation) over %d slots\n",
		*streams, *promptLen, *tokens, *slots)
	fmt.Printf("decoded %d tokens in %d steps over %s (%.1f tok/s)\n",
		run.tokensFed, run.steps, run.wall.Round(time.Millisecond), tokPerSec)
	fmt.Printf("arena: cap %s, active after run %s\n", fmtB(run.arenaCap), fmtB(run.arenaActiveAfter))
	if pm != nil {
		fmt.Printf("packed weights (%s): %s float32 released → %s resident (%.1f%%), pool drop %s\n",
			packDesc, fmtB(pm.ReleasedBytes()), fmtB(pm.StorageBytes()),
			100*float64(pm.StorageBytes())/float64(pm.ReleasedBytes()), fmtB(weightPoolDrop))
	}
	if len(run.cancelled) > 0 {
		fmt.Printf("cancelled mid-stream: %v\n", run.cancelled)
	}
	if *verify {
		fmt.Printf("verified %d/%d surviving streams bitwise against solo decodes; arena drained\n",
			verified, len(run.results)-len(run.cancelled))
	}
	if speedup > 0 {
		fmt.Printf("batch speedup over one-at-a-time: %.2fx\n", speedup)
	}
	return nil
}

// decodeRun captures one workload execution for reporting and verification.
type decodeRun struct {
	wall             time.Duration
	results          []serve.Result
	steps            int64
	tokensFed        int64
	cancelled        []string
	arenaCap         int64
	arenaActiveAfter int64
	activeSlotsAfter int
}

// runDecodeWorkload pushes reqs through a fresh scheduler with the given
// slot capacity. When inj is non-nil, each stream consults it once at its
// halfway token and a returned error cancels the stream — deterministic
// mid-generation churn for the smoke test.
func runDecodeWorkload(m *nn.Model, pm *nn.PackedModel, reqs []serve.Request, slots, halfway int, inj *fault.Injector) (*decodeRun, error) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	pool := tensor.NewPool()
	dec := nn.NewBatchDecoder(m, slots, pool)
	defer dec.Close()
	if pm != nil {
		if err := dec.SetPacked(pm); err != nil {
			return nil, fmt.Errorf("decode-bench: SetPacked: %w", err)
		}
	}
	sched := serve.New(dec)
	ctx := context.Background()

	run := &decodeRun{arenaCap: dec.ArenaCapBytes()}
	if inj != nil {
		sched.OnSample = func(st *serve.Stream, tok int) {
			if st.Sampled() == halfway {
				if err := inj.Hook(ctx, st.ID(), 0); err != nil {
					st.Cancel()
				}
			}
		}
	}

	streams := make([]*serve.Stream, len(reqs))
	for i, req := range reqs {
		st, err := sched.Submit(req)
		if err != nil {
			return nil, fmt.Errorf("decode-bench: submit %s: %w", req.ID, err)
		}
		streams[i] = st
	}
	start := time.Now()
	if err := sched.Run(ctx); err != nil {
		return nil, err
	}
	run.wall = time.Since(start)

	for _, st := range streams {
		res := st.Result()
		run.results = append(run.results, res)
		if errors.Is(res.Err, serve.ErrCancelled) {
			run.cancelled = append(run.cancelled, res.ID)
		} else if res.Err != nil {
			return nil, fmt.Errorf("decode-bench: stream %s failed: %w", res.ID, res.Err)
		}
	}
	sort.Strings(run.cancelled)

	snap := rec.Snapshot()
	run.tokensFed = snap.Counters["decode.tokens"]
	run.steps = snap.Dists["decode.step_ms"].Count
	run.arenaActiveAfter = dec.ArenaActiveBytes()
	run.activeSlotsAfter = dec.ActiveSlots()
	return run, nil
}

func intsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
