package serve

import (
	"context"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
)

// BenchmarkServeSchedulerTokenPacked4 is BenchmarkServeSchedulerToken with
// the decoder's block matmuls routed through the fused 4-bit kernels —
// the packed weights are the serving stack's only resident copy. The
// BENCH_serve.json gate re-pins 0 allocs/op under packed execution (the
// tile-decode scratch must stay out of the per-token path) and holds the
// packed resident bytes as a wbytes ceiling.
func BenchmarkServeSchedulerTokenPacked4(b *testing.B) {
	rec := obsv.New()
	obsv.SetGlobal(rec)
	defer obsv.SetGlobal(nil)

	m := benchModel()
	specs := make([]nn.PackSpec, m.Cfg.Layers)
	for i := range specs {
		specs[i] = nn.PackSpec{Bits: 4}
	}
	pm, err := nn.PackModel(m, specs, nil)
	if err != nil {
		b.Fatal(err)
	}
	dec := nn.NewBatchDecoder(m, 1, nil)
	defer dec.Close()
	if err := dec.SetPacked(pm); err != nil {
		b.Fatal(err)
	}
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
	b.ReportMetric(float64(pm.StorageBytes()), "wbytes")
	cancel()
	<-serveDone
}
