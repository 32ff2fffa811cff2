package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
	"edgellm/internal/tensor"
)

// benchModel is testModel with the served vocabulary, 2048 (the bench
// workloads' and the nn decode benchmarks' models'), so a sampled token takes
// its top-k from a full-size logit row.
func benchModel() *nn.Model {
	cfg := nn.Config{Vocab: 2048, Dim: 16, Heads: 4, Layers: 2, Hidden: 24, MaxSeq: 32}
	return nn.NewModel(cfg, tensor.NewRNG(600))
}

// benchSample is the bench workloads' sampling, temperature 0.8 and top-k 40, for
// n tokens: the gates below cover the sampled path, not only greedy decode.
func benchSample(n int) nn.SampleConfig {
	return nn.SampleConfig{Temperature: 0.8, TopK: 40, MaxTokens: n}
}

// BenchmarkServeSchedulerToken measures the serving path's per-token cost
// through the scheduler at batch 1 (sampled decode, one op per token) with a
// live recorder installed, so the per-stream timing attribution and the
// sampled decode.step spans are in the measured path. The BENCH_serve.json
// gate pins allocs/op at 0: steady-state decode allocates nothing per
// token, and all per-request observability (span records, labeled dists)
// must amortize below one allocation per token.
func BenchmarkServeSchedulerToken(b *testing.B) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	dec := nn.NewBatchDecoder(benchModel(), 1, nil)
	defer dec.Close()
	sched := New(dec)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- sched.Serve(ctx) }()

	prompt := []int{1, 2}
	const perReq = 24 // prompt+tokens ≤ the test model's MaxSeq of 32
	b.ReportAllocs()
	b.ResetTimer()
	produced := 0
	for produced < b.N {
		n := perReq
		if rest := b.N - produced; rest < n {
			n = rest
		}
		st, err := sched.Submit(Request{ID: "bench", Prompt: prompt, Cfg: benchSample(n)})
		if err != nil {
			b.Fatal(err)
		}
		<-st.Done()
		if res := st.Result(); res.Err != nil {
			b.Fatal(res.Err)
		}
		produced += n
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(produced)/sec, "tok/s")
	}
	cancel()
	<-serveDone
}

// BenchmarkServeSchedulerTokenMixed is BenchmarkServeSchedulerToken with two
// tenants on different adapters decoding side by side: two slots, each pair
// of requests under adapters A and B, submitted in alternating order so that
// the slots change adapter from one pair to the next. One op is one token of
// either stream. The BENCH_serve.json gate pins allocs/op at 0 here too:
// binding a slot and the side path's per-adapter stretches allocate nothing
// per token.
func BenchmarkServeSchedulerTokenMixed(b *testing.B) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	m := benchModel()
	adapters := [2]*nn.Adapter{makeTestAdapter(b, "A", 610, m.Cfg), makeTestAdapter(b, "B", 611, m.Cfg)}
	dec := nn.NewBatchDecoder(m, 2, nil)
	defer dec.Close()
	sched := New(dec)
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- sched.Serve(ctx) }()

	prompt := []int{1, 2}
	const perReq = 24 // prompt+tokens ≤ the test model's MaxSeq of 32
	b.ReportAllocs()
	b.ResetTimer()
	produced := 0
	var streams [2]*Stream
	for pair := 0; produced < b.N; pair++ {
		n := min(perReq, (b.N-produced+1)/2)
		for i := range streams {
			st, err := sched.Submit(Request{ID: "bench", Prompt: prompt, Cfg: benchSample(n), Adapter: adapters[(pair+i)%2]})
			if err != nil {
				b.Fatal(err)
			}
			streams[i] = st
		}
		for _, st := range streams {
			<-st.Done()
			if res := st.Result(); res.Err != nil {
				b.Fatal(res.Err)
			}
		}
		produced += 2 * n
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(produced)/sec, "tok/s")
	}
	cancel()
	<-serveDone
}

// BenchmarkServeHTTPBatch1 measures one full request through the HTTP front
// end at batch 1 (one op per request, 24 greedy tokens each) with the access
// log writing to a discard sink, and reports throughput plus the p99 of
// serve.queue_wait_ms and serve.ttft_ms. The BENCH_serve.json gates are a
// conservative tok/s floor and generous latency ceilings: they catch
// queueing or admission collapse (a lost wakeup, an accidental serial
// bottleneck), not machine-speed drift.
func BenchmarkServeHTTPBatch1(b *testing.B) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	m := testModel(601)
	dec := nn.NewBatchDecoder(m, 1, nil)
	defer dec.Close()
	srv := NewServer(dec, ServerConfig{MaxQueue: 4, AccessLog: NewAccessLog(io.Discard)})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()

	const perReq = 24
	blob, err := json.Marshal(generateRequest{ID: "bench", Prompt: []int{1, 2}, MaxTokens: perReq})
	if err != nil {
		b.Fatal(err)
	}
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(blob))
		if err != nil {
			b.Fatal(err)
		}
		var sink bytes.Buffer
		if _, err := sink.ReadFrom(resp.Body); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			b.Fatalf("status %d: %s", resp.StatusCode, sink.Bytes())
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N*perReq)/sec, "tok/s")
	}
	// p99 queue wait and TTFT across tenant label variants.
	var p99, ttft99 float64
	for key, d := range rec.Snapshot().Dists {
		if strings.HasPrefix(key, "serve.queue_wait_ms") && d.P99 > p99 {
			p99 = d.P99
		}
		if strings.HasPrefix(key, "serve.ttft_ms") && d.P99 > ttft99 {
			ttft99 = d.P99
		}
	}
	b.ReportMetric(p99, "p99ms")
	b.ReportMetric(ttft99, "ttftp99ms")
}
