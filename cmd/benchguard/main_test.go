package main

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestParseBenchKeepsFastestRepetition: with -count N the input names a
// benchmark N times; the fastest line is recorded whole, wherever it sits.
func TestParseBenchKeepsFastestRepetition(t *testing.T) {
	in := `
BenchmarkDecodeStep-2   	     500	   2400000 ns/op	       416.0 tok/s	       0 B/op	       0 allocs/op
BenchmarkDecodeStep-2   	     600	   2000000 ns/op	       500.0 tok/s	       0 B/op	       0 allocs/op
BenchmarkDecodeStep-2   	     450	   2900000 ns/op	       344.0 tok/s	      16 B/op	       1 allocs/op
`
	got := map[string]benchResult{}
	if err := parseBench(strings.NewReader(in), got); err != nil {
		t.Fatal(err)
	}
	r := got["DecodeStep"]
	if r.NsOp != 2000000 || r.TokS != 500 || r.AllocsOp != 0 || r.Procs != 2 {
		t.Fatalf("kept %+v, want the 2000000 ns/op line", r)
	}
}

// TestSpeedupMinProcs: a pair is judged from its min_procs up — 4 unless
// the baseline says otherwise, so a kernel-vs-kernel pair (min_procs 1)
// fails a 1-proc run that a fan-out pair would not even look at.
func TestSpeedupMinProcs(t *testing.T) {
	rep := report{Benchmarks: map[string]benchResult{
		"Packed": {Procs: 1, NsOp: 6e6},
		"Dense":  {Procs: 1, NsOp: 2e6},
	}}
	pairs := map[string]speedupSpec{
		"fanout": {Parallel: "Packed", Serial: "Dense", Min: 0.6},
		"kernel": {Parallel: "Packed", Serial: "Dense", Min: 0.6, MinProcs: 1},
	}
	rep.Speedups = deriveSpeedups(rep.Benchmarks, pairs)
	errs, _ := check(rep, baseline{Tolerance: 0.2, Speedups: pairs})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "kernel: speedup 0.33×") {
		t.Fatalf("errors %v, want exactly the min_procs-1 pair to fail at 0.33×", errs)
	}
}

// TestSpeedupPath: a pair that names a kernel path is judged on a run of
// that path and reported skipped on any other; a pair without one is judged
// on every path.
func TestSpeedupPath(t *testing.T) {
	rep := report{Benchmarks: map[string]benchResult{
		"Packed": {Procs: 1, NsOp: 6e6},
		"Dense":  {Procs: 1, NsOp: 2e6},
	}}
	pairs := map[string]speedupSpec{
		"any":    {Parallel: "Packed", Serial: "Dense", Min: 0.6, MinProcs: 1},
		"avx512": {Parallel: "Packed", Serial: "Dense", Min: 0.6, MinProcs: 1, Path: "avx512"},
	}
	rep.Speedups = deriveSpeedups(rep.Benchmarks, pairs)
	for _, c := range []struct {
		path    string
		fails   int
		skipped []string
	}{{"avx512", 2, nil}, {"avx2", 1, []string{"avx512"}}, {"go", 1, []string{"avx512"}}} {
		rep.KernelPath = c.path
		errs, skipped := check(rep, baseline{Tolerance: 0.2, Speedups: pairs})
		if len(errs) != c.fails || !slices.Equal(skipped, c.skipped) {
			t.Errorf("path %s: errors %v, skipped %v; want %d errors, skipped %v", c.path, errs, skipped, c.fails, c.skipped)
		}
	}
}

// TestCommittedBaselinesLoad: every committed baseline loads (each speedup
// pair names its own min), and the parallel backward kernels are gated at
// 2× from 4 procs by BENCH_baseline.json.
func TestCommittedBaselinesLoad(t *testing.T) {
	for _, f := range []string{"BENCH_baseline.json", "BENCH_decode.json", "BENCH_packed.json", "BENCH_serve.json"} {
		if _, err := loadBaseline(filepath.Join("..", "..", f)); err != nil {
			t.Fatal(err)
		}
	}
	b, err := loadBaseline(filepath.Join("..", "..", "BENCH_baseline.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"matmult_parallel_vs_serial", "tmatmul_parallel_vs_serial"} {
		if p := b.Speedups[name]; p.Min != 2 || p.MinProcs != 4 {
			t.Fatalf("%s = %+v, want min 2 from 4 procs", name, p)
		}
	}
}
