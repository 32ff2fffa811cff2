package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

// serveModel is the repo's decode-bench shape: about 14 MB of float32 block
// weights are streamed per token, far more than any cache level holds, so
// batch-1 decode is bound by weight bandwidth.
var serveModel = nn.Config{Vocab: 2048, Dim: 256, Heads: 8, Layers: 4, Hidden: 768, MaxSeq: 128}

// serveModelSeed is the init seed of the served model; -seed never changes
// the program's weights, only the inputs it is given.
const serveModelSeed = 7

// tuneModel is the model the paper's loop runs on: six layers so a window
// of two leaves four frozen, at 128 rows (batch 4 × seq 32) per matmul.
var tuneModel = nn.Config{Vocab: 256, Dim: 128, Heads: 4, Layers: 6, Hidden: 384, MaxSeq: 32, ExitHeads: true}

const (
	tuneBatch   = 4
	tuneSeq     = 32
	tuneWindow  = 2
	tuneBits    = 4.0
	tuneCalib   = 4  // calibration sequences for the LUC output-KL probe
	tuneWarmup  = 5  // TuneSteps before the first timed one
	voteBatches = 4  // held-out batches that calibrate the vote
	evalBatches = 16 // held-out batches behind eval_ppl
	genPrompts  = 12 // voted generations after tuning (ttft/itl of the tuned model)
	genPrompt   = 8
	genTokens   = 24
)

// Sampling is the same on every request; only the seed differs.
const (
	sampleTemperature = 0.8
	sampleTopK        = 40
)

const (
	warmupPerClient = 4 // warm-up requests per client, counted in setup_s
	// reps is how many equal back-to-back reps the measured phase is cut
	// into. The host clock is read at every rep boundary (clock.go), so a rep
	// is also the grain at which a change of the host's clock level is seen:
	// reps of about a second, against levels that last from seconds to
	// minutes. Rates are the median of the reps; latency percentiles pool
	// every rep's samples.
	reps         = 9
	verifyEvery  = 8 // every 8th measured request is re-decoded solo
	adapterCount = 4
	adapterRank  = 8
	adapterAlpha = 16
	// nominalSeconds is the -seconds value the perRep counts are sized for
	// on a 2-core box. Other values scale every count by seconds/nominal.
	nominalSeconds = 20
)

type kind int

const (
	kindHTTP  kind = iota // closed-loop clients over loopback HTTP
	kindBatch             // all requests submitted at once to serve.Scheduler
	kindTune              // core.Pipeline tuning loop
)

// spec is one workload. procs is its GOMAXPROCS: two for the HTTP workloads,
// one for the server's decode loop (their batches are below the kernels'
// parallel threshold) and one for the load generator, which must read token
// lines while the server computes; one for the batch and tuning workloads,
// whose kernels fan out across every P they are given and then wait for the
// slowest, which on a few shared cores measures the host's scheduler (README.md,
// "Steadiness"). perRep is the operation count of one rep at
// nominalSeconds: requests per client (HTTP), requests (batch) or TuneSteps.
// A batch rep is a whole number of slot-loads so that occupancy stays full.
type spec struct {
	name, why string
	kind      kind
	procs     int  // GOMAXPROCS of the run unless --procs says otherwise
	packed    bool // block weights packed uniform 4-bit
	adapters  bool // every request names an adapter
	promptLen int
	outTokens int
	slots     int
	perRep    int
}

var workloads = []spec{
	{
		name: "chat_f32", kind: kindHTTP, procs: 2, promptLen: 8, outTokens: 48, slots: 2, perRep: 10,
		why: "float32 decode at batch<=2 over HTTP: dense kernels and serve overhead; bypass for packed, prefill, adapter and worker-pool changes",
	},
	{
		name: "longprompt_packed4", kind: kindHTTP, procs: 2, packed: true, promptLen: 64, outTokens: 16, slots: 2, perRep: 8,
		why: "64-token prompts through packed 4-bit kernels: TTFT is prefill cost, so packed-kernel speed and chunked prefill show here only",
	},
	{
		name: "batch8_packed4", kind: kindBatch, procs: 1, packed: true, promptLen: 8, outTokens: 48, slots: 8, perRep: 16,
		why: "offline batch at full 8-slot occupancy, no HTTP: batching, matmul fan-out and packed decode-once-per-step amortisation show here",
	},
	{
		name: "tenants_adapters", kind: kindHTTP, procs: 2, adapters: true, promptLen: 8, outTokens: 48, slots: 2, perRep: 10,
		why: "chat_f32 with a different adapter per request and disjoint adapters per client: the only workload where per-slot adapters do work",
	},
	{
		name: "tune_window", kind: kindTune, procs: 1, perRep: 14,
		why: "the paper's loop (LUC compress, windowed tuning, vote) through core.Pipeline: training kernels at 128 rows and the compress write path",
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// scaled is perRep for a run of the given length, never below one.
func (w spec) scaled(seconds float64) int {
	n := int(math.Round(float64(w.perRep) * seconds / nominalSeconds))
	if n < 1 {
		n = 1
	}
	return n
}

// clientCount is how many closed-loop clients drive an HTTP workload:
// callers on an edge box are few and each waits for its reply.
func clientCount() int {
	if runtime.NumCPU() < 2 {
		return 1
	}
	return 2
}

// request is one generated generation job.
type request struct {
	id      string
	prompt  []int
	seed    int64
	adapter string
}

func adapterName(i int) string { return fmt.Sprintf("ad%d", i) }

// genRequests builds n requests for each client from one stream seeded by
// (seed, phase), so the same arguments always yield the same inputs and the
// warm-up never replays the measured requests. With adapters, client c
// alternates between adapters 2c and 2c+1: no two clients ever share one.
// (A rotation shared by all clients phase-locks into accidental sharing and
// makes the workload bimodal from run to run.)
func genRequests(w spec, seed int64, phase string, clients, n int) [][]request {
	h := fnv.New64a()
	h.Write([]byte(phase))
	rng := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	out := make([][]request, clients)
	for c := range out {
		out[c] = make([]request, n)
		for i := range out[c] {
			r := request{
				id:     fmt.Sprintf("%s-c%d-%d", phase, c, i),
				prompt: make([]int, w.promptLen),
				seed:   rng.Int63(),
			}
			for j := range r.prompt {
				r.prompt[j] = rng.Intn(serveModel.Vocab)
			}
			if w.adapters {
				r.adapter = adapterName((2*c + i%2) % adapterCount)
			}
			out[c][i] = r
		}
	}
	return out
}

// genAdapters builds the tenants' rank-8 adapters on every block's wq and
// wv from the seed.
func genAdapters(seed int64) ([]*nn.Adapter, error) {
	rng := tensor.NewRNG(seed)
	out := make([]*nn.Adapter, adapterCount)
	for i := range out {
		var pairs []nn.AdapterPair
		for l := 0; l < serveModel.Layers; l++ {
			for _, lin := range []string{"wq", "wv"} {
				pairs = append(pairs, nn.AdapterPair{
					Target: fmt.Sprintf("block%d.%s", l, lin),
					A:      rng.Normal(0, 0.05, serveModel.Dim, adapterRank),
					B:      rng.Normal(0, 0.05, adapterRank, serveModel.Dim),
				})
			}
		}
		a, err := nn.NewAdapter(adapterName(i), adapterAlpha, pairs)
		if err != nil {
			return nil, err
		}
		out[i] = a
	}
	return out, nil
}
