package main

import (
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
	errs := check(rep, baseline{Tolerance: 0.2, MinSpeedup: 2, Speedups: pairs})
	if len(errs) != 1 || !strings.Contains(errs[0].Error(), "kernel: speedup 0.33×") {
		t.Fatalf("errors %v, want exactly the min_procs-1 pair to fail at 0.33×", errs)
	}
}
