package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"edgellm/internal/govern"
	"edgellm/internal/nn"
	"edgellm/internal/serve"
	"edgellm/internal/tensor"
)

// kvBudgetBytes is large enough never to reject a request, so that
// govern.Admission is on the request path without shaping the workload.
const kvBudgetBytes = 1 << 30

// fixture is one serving stack under test: model, decoder and either the
// HTTP server on a loopback listener or a bare scheduler.
type fixture struct {
	w      spec
	model  *nn.Model
	pool   *tensor.Pool
	packed *nn.PackedModel
	dec    *nn.Decoder

	// HTTP workloads.
	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	url     string

	// Batch workload.
	sched     *serve.Scheduler
	stopSched context.CancelFunc
	schedDone chan error
}

// packUniform4 packs every block of m to uniform 4-bit the way
// `edgellm serve -bits 4` does: adopt the weights into a pool of their own,
// pack, release the float32 backing to that pool.
func packUniform4(m *nn.Model) (*nn.PackedModel, error) {
	pool := tensor.NewPool()
	nn.AdoptWeights(m, pool)
	specs := make([]nn.PackSpec, len(m.Blocks))
	for i := range specs {
		specs[i] = nn.PackSpec{Bits: 4}
	}
	return nn.PackModel(m, specs, pool)
}

// newFixture builds the serving stack; adapterDir holds the tenants'
// adapter artifacts (empty when the workload has none).
func newFixture(w spec, adapterDir string) (*fixture, error) {
	f := &fixture{w: w, pool: tensor.NewPool()}
	f.model = nn.NewModel(serveModel, tensor.NewRNG(serveModelSeed))
	if w.packed {
		pm, err := packUniform4(f.model)
		if err != nil {
			return nil, err
		}
		f.packed = pm
	}
	f.dec = nn.NewBatchDecoder(f.model, w.slots, f.pool)
	if f.packed != nil {
		if err := f.dec.SetPacked(f.packed); err != nil {
			return nil, err
		}
	}
	if w.kind == kindBatch {
		f.sched = serve.New(f.dec)
		ctx, cancel := context.WithCancel(context.Background())
		f.stopSched = cancel
		f.schedDone = make(chan error, 1)
		go func() { f.schedDone <- f.sched.Serve(ctx) }()
		return f, nil
	}
	cfg := serve.ServerConfig{
		MaxQueue:     2 * w.slots,
		DrainTimeout: 10 * time.Second,
		Budget:       govern.Budget{MemoryBytes: kvBudgetBytes},
	}
	if adapterDir != "" {
		cfg.Registry = serve.NewRegistry(adapterDir, adapterCount)
	}
	f.srv = serve.NewServer(f.dec, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f.url = "http://" + ln.Addr().String() + "/v1/generate"
	f.httpSrv = &http.Server{Handler: f.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.served = make(chan error, 1)
	go func() { f.served <- f.httpSrv.Serve(ln) }()
	return f, nil
}

// close drains the stack and reports how long the drain took. It fails if
// the KV arena still holds bytes afterwards, and leaves the shared model
// weights pristine for the solo verification decoder.
func (f *fixture) close() (drain time.Duration, err error) {
	start := time.Now()
	if f.sched != nil {
		f.sched.Close()
		f.stopSched()
		<-f.schedDone // Serve returns only ctx.Err()
	} else {
		err = f.srv.Drain()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		err = errors.Join(err, f.httpSrv.Shutdown(ctx))
		<-f.served // http.ErrServerClosed
	}
	drain = time.Since(start)
	if n := f.dec.ArenaActiveBytes(); n != 0 {
		err = errors.Join(err, fmt.Errorf("KV arena holds %d bytes after drain", n))
	}
	f.dec.Close() // restores base weights if an adapter is still merged
	return drain, err
}

// sample is what the load generator saw of one request.
type sample struct {
	req       request
	start     time.Time
	ttftMS    float64
	gapsMS    []float64
	totalMS   float64
	tokens    []int   // prompt + continuation, from the terminal line
	queueMS   float64 // server-reported queue wait
	serverMS  float64 // server-reported total
	failure   string  // why the request failed its structural checks
	nonOK     bool    // the server answered with a non-200 status
	outTokens int
}

// streamLine is any NDJSON line of a streaming response: a token, the
// terminal success object or a terminal error object.
type streamLine struct {
	Token       *int    `json:"token"`
	Tokens      []int   `json:"tokens"`
	Done        bool    `json:"done"`
	QueueWaitMS float64 `json:"queue_wait_ms"`
	TotalMS     float64 `json:"total_ms"`
	Error       string  `json:"error"`
}

type generateBody struct {
	ID          string  `json:"id"`
	Tenant      string  `json:"tenant"`
	Adapter     string  `json:"adapter,omitempty"`
	Prompt      []int   `json:"prompt"`
	MaxTokens   int     `json:"max_tokens"`
	Temperature float64 `json:"temperature"`
	TopK        int     `json:"top_k"`
	Seed        int64   `json:"seed"`
	Stream      bool    `json:"stream"`
}

// doRequest sends one streaming request and times its token lines. TTFT is
// request write to first token line; the gaps are between consecutive token
// lines.
func doRequest(client *http.Client, url string, w spec, tenant string, r request, tr *tracer, parent int) sample {
	s := sample{req: r, outTokens: w.outTokens}
	body, err := json.Marshal(generateBody{
		ID: r.id, Tenant: tenant, Adapter: r.adapter, Prompt: r.prompt, MaxTokens: w.outTokens,
		Temperature: sampleTemperature, TopK: sampleTopK, Seed: r.seed, Stream: true,
	})
	if err != nil {
		s.failure = err.Error()
		return s
	}
	root := tr.begin("client.request", parent, r.id)
	defer tr.end(root)
	s.start = time.Now()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		s.failure = err.Error()
		return s
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		s.nonOK = true
		s.failure = "status " + resp.Status
		return s
	}
	var streamed []int
	var first, last time.Time
	rd := bufio.NewReader(resp.Body)
	for {
		raw, err := rd.ReadBytes('\n')
		now := time.Now()
		if len(raw) > 0 {
			var line streamLine
			if jerr := json.Unmarshal(raw, &line); jerr != nil {
				s.failure = "bad line: " + jerr.Error()
				return s
			}
			switch {
			case line.Token != nil:
				if first.IsZero() {
					first = now
					s.ttftMS = ms(now.Sub(s.start))
				} else {
					s.gapsMS = append(s.gapsMS, ms(now.Sub(last)))
				}
				last = now
				streamed = append(streamed, *line.Token)
			case line.Done:
				s.totalMS = ms(now.Sub(s.start))
				s.tokens, s.queueMS, s.serverMS = line.Tokens, line.QueueWaitMS, line.TotalMS
				tr.record("client.ttft", root, r.id, s.start, first)
				tr.record("client.stream", root, r.id, first, last)
				s.failure = checkTokens(r, w.outTokens, s.tokens, streamed)
				return s
			default:
				s.failure = "terminal line is not done: " + line.Error
				return s
			}
		}
		if err != nil {
			s.failure = "stream ended without a terminal line: " + err.Error()
			return s
		}
	}
}

// checkTokens is the structural check every request gets: the terminal
// token list is prompt followed by exactly outTokens tokens, and they are
// the tokens that were streamed.
func checkTokens(r request, outTokens int, tokens, streamed []int) string {
	if len(tokens) != len(r.prompt)+outTokens {
		return fmt.Sprintf("got %d tokens, want %d", len(tokens), len(r.prompt)+outTokens)
	}
	for i, t := range r.prompt {
		if tokens[i] != t {
			return "terminal tokens do not start with the prompt"
		}
	}
	if len(streamed) != outTokens {
		return fmt.Sprintf("streamed %d tokens, want %d", len(streamed), outTokens)
	}
	for i, t := range streamed {
		if tokens[len(r.prompt)+i] != t {
			return "streamed tokens differ from the terminal line"
		}
	}
	return ""
}

// newClients returns one HTTP client per closed-loop caller, each confined
// to a single keep-alive connection.
func newClients(n int) []*http.Client {
	out := make([]*http.Client, n)
	for i := range out {
		out[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	return out
}

// closedLoop runs each client's requests one after the other, every client
// on its own goroutine, and returns all samples and the wall time: a client
// sends its next request only when the previous one has been answered.
func closedLoop(reqs [][]request, do func(client int, r request) sample) ([]sample, time.Duration) {
	out := make([][]sample, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range reqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for _, r := range reqs[c] {
				out[c] = append(out[c], do(c, r))
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all, wall
}

// runHTTP drives one rep over HTTP, one connection per client.
func (f *fixture) runHTTP(clients []*http.Client, reqs [][]request, tr *tracer, parent int) ([]sample, time.Duration) {
	return closedLoop(reqs, func(c int, r request) sample {
		return doRequest(clients[c], f.url, f.w, fmt.Sprintf("c%d", c), r, tr, parent)
	})
}

// runBatch submits every request at once to the scheduler and waits for
// all of them. Token times are taken in the scheduler's per-token hook.
func (f *fixture) runBatch(reqs []request, adapters map[string]*nn.Adapter, tr *tracer, parent int) ([]sample, time.Duration) {
	samples := make([]sample, len(reqs))
	times := make([][]time.Time, len(reqs))
	streams := make([]*serve.Stream, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		samples[i] = sample{req: r, outTokens: f.w.outTokens, start: time.Now()}
		times[i] = make([]time.Time, 0, f.w.outTokens)
		st, err := f.sched.Submit(serve.Request{
			ID: r.id, Prompt: r.prompt, Cfg: sampleConfig(r.seed, f.w.outTokens), Adapter: adapters[r.adapter],
			OnToken: func(*serve.Stream, int) { times[i] = append(times[i], time.Now()) },
		})
		if err != nil {
			samples[i].failure = err.Error()
			continue
		}
		streams[i] = st
	}
	for i, st := range streams {
		if st == nil {
			continue
		}
		<-st.Done()
		s := &samples[i]
		res := st.Result()
		end := time.Now()
		if res.Err != nil {
			s.failure = res.Err.Error()
			continue
		}
		s.tokens = res.Tokens
		tm := st.Timing()
		s.queueMS = ms(tm.Admitted.Sub(tm.Submitted))
		ts := times[i] // the close of Done publishes the hook's writes
		if len(ts) > 0 {
			s.ttftMS = ms(ts[0].Sub(s.start))
			for j := 1; j < len(ts); j++ {
				s.gapsMS = append(s.gapsMS, ms(ts[j].Sub(ts[j-1])))
			}
			s.totalMS = ms(ts[len(ts)-1].Sub(s.start))
			root := tr.record("sched.request", parent, s.req.id, s.start, end)
			tr.record("sched.queue", root, s.req.id, tm.Submitted, tm.Admitted)
			tr.record("sched.decode", root, s.req.id, tm.Admitted, tm.LastToken)
		}
		s.failure = checkTokens(s.req, f.w.outTokens, s.tokens, s.tokens[min(len(s.req.prompt), len(s.tokens)):])
		if s.failure == "" && len(ts) != f.w.outTokens {
			s.failure = fmt.Sprintf("token hook fired %d times, want %d", len(ts), f.w.outTokens)
		}
	}
	return samples, time.Since(start)
}

// runClosedLoop is runHTTP without the HTTP: each client submits one request
// to the scheduler, waits for it, and submits the next.
func (f *fixture) runClosedLoop(reqs [][]request, adapters map[string]*nn.Adapter, tr *tracer, parent int) ([]sample, time.Duration) {
	return closedLoop(reqs, func(_ int, r request) sample {
		s, _ := f.runBatch([]request{r}, adapters, tr, parent)
		return s[0]
	})
}

func sampleConfig(seed int64, outTokens int) nn.SampleConfig {
	return nn.SampleConfig{Temperature: sampleTemperature, TopK: sampleTopK, MaxTokens: outTokens, Seed: seed}
}

// soloDecode generates r's continuation on a single-sequence decoder, the
// way nn.Decoder.Generate does (the smoke test pins the two equal), and
// also returns the summed negative log-probability the model gave the
// sampled tokens.
func soloDecode(d *nn.Decoder, r request, outTokens int) ([]int, float64, error) {
	cfg := sampleConfig(r.seed, outTokens)
	g := tensor.NewRNG(r.seed)
	d.Reset()
	var logits []float32
	var err error
	for _, t := range r.prompt {
		if logits, err = d.Step(t); err != nil {
			return nil, 0, err
		}
	}
	out := append([]int(nil), r.prompt...)
	var nll float64
	for i := 0; i < outTokens; i++ {
		next := nn.SampleLogits(logits, cfg, g)
		nll -= logProb(logits, next)
		out = append(out, next)
		if i == outTokens-1 {
			break
		}
		if logits, err = d.Step(next); err != nil {
			return nil, 0, err
		}
	}
	return out, nll, nil
}

// logProb is log softmax(logits)[tok].
func logProb(logits []float32, tok int) float64 {
	maxV := logits[0]
	for _, v := range logits[1:] {
		if v > maxV {
			maxV = v
		}
	}
	var denom float64
	for _, v := range logits {
		denom += math.Exp(float64(v - maxV))
	}
	return float64(logits[tok]-maxV) - math.Log(denom)
}

// verifySolo re-decodes every verifyEvery-th sample on a solo decoder with
// the same weights, packing, adapter and seed, and marks samples whose
// served tokens differ. It returns the perplexity the model assigns to the
// verified continuations. The fixture must be closed first: adapters patch
// the shared model weights in place.
func verifySolo(f *fixture, adapters map[string]*nn.Adapter, samples []sample) (ppl float64, err error) {
	solo := nn.NewBatchDecoder(f.model, 1, nil)
	defer solo.Close()
	if f.packed != nil {
		if err := solo.SetPacked(f.packed); err != nil {
			return 0, err
		}
	}
	var nll float64
	var n int
	for i := 0; i < len(samples); i += verifyEvery {
		s := &samples[i]
		if s.failure != "" {
			continue
		}
		if err := solo.SetAdapter(adapters[s.req.adapter]); err != nil {
			return 0, err
		}
		want, reqNLL, err := soloDecode(solo, s.req, s.outTokens)
		if err != nil {
			return 0, err
		}
		nll += reqNLL
		n += s.outTokens
		for j := range want {
			if s.tokens[j] != want[j] {
				s.failure = fmt.Sprintf("token %d is %d, solo decode gives %d", j, s.tokens[j], want[j])
				break
			}
		}
	}
	if n == 0 {
		return math.NaN(), nil
	}
	return math.Exp(nll / float64(n)), nil
}

// writeAdapters saves the adapters under dir, each in a file of its own name
// as serve.Registry expects.
func writeAdapters(dir string, adapters []*nn.Adapter) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range adapters {
		if err := a.SaveFile(filepath.Join(dir, a.Name())); err != nil {
			return err
		}
	}
	return nil
}
