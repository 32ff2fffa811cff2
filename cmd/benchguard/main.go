// Command benchguard turns `go test -bench` output into a machine-readable
// BENCH_kernels.json artifact and, given a checked-in baseline, gates the
// run:
//
//   - allocs/op and B/op for the baseline's gated benchmarks must stay
//     within the baseline's tolerance (these are machine-independent for
//     benchmarks whose kernels stay below the tensor parallel threshold);
//   - the parallel backward kernels must beat their single-band serial
//     variants by the baseline's min_speedup — checked only when the
//     benchmarks ran at ≥4 procs, since the speedup criterion is defined
//     on ≥4 cores;
//   - benchmarks reporting the custom tok/s metric (the decode and serve
//     suites) must stay above the baseline's tok_s floor minus the
//     tolerance, and any extra speedup pairs the baseline declares must
//     reach their min ratio from the pair's min_procs up: 4 by default
//     (a pair that measures fan-out needs the cores), 1 for pairs that
//     compare two serial loops and hold on any machine, such as packed
//     vs float32 decode and batch-8 vs one-at-a-time;
//   - benchmarks reporting the custom p99ms metric (the serve suite's
//     queue-wait tail) must stay below the baseline's p99_ms ceiling plus
//     the tolerance — a generous bound that catches queueing collapse (a
//     lost wakeup, unbounded waiting), not latency drift;
//   - benchmarks reporting the custom wbytes metric (the packed suite's
//     resident weight bytes) must stay at or below the baseline's wbytes
//     ceiling exactly — packed storage is deterministic, so any growth
//     means the bit budget stopped buying the bytes it claims.
//
// Wall-clock ns/op is recorded in the artifact but never gated: it is not
// comparable across machines. The decode baseline's tok/s floors are set
// far below any observed run for the same reason — they catch collapse
// (an accidental O(n²) step, a lost cache), not drift. When the input
// holds a benchmark more than once (`-count N`, or several passes), the
// fastest repetition is the one recorded and gated: a shared host's clock
// moves by a quarter between repetitions, and the fastest is the one it
// disturbed least.
//
// Usage:
//
//	go test -bench 'BenchmarkKernel|BenchmarkStep' -benchmem -run '^$' \
//	    ./internal/tensor ./internal/train | \
//	  go run ./cmd/benchguard -out BENCH_kernels.json -baseline BENCH_baseline.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

type benchResult struct {
	Procs      int     `json:"procs"`
	Iterations int64   `json:"iterations"`
	NsOp       float64 `json:"ns_op"`
	MBs        float64 `json:"mb_s,omitempty"`
	TokS       float64 `json:"tok_s,omitempty"`
	P99MS      float64 `json:"p99_ms,omitempty"`
	TTFTP99MS  float64 `json:"ttft_p99_ms,omitempty"`
	WBytes     float64 `json:"wbytes,omitempty"`
	BOp        int64   `json:"b_op"`
	AllocsOp   int64   `json:"allocs_op"`
}

type report struct {
	GoVersion  string                 `json:"go_version"`
	NumCPU     int                    `json:"num_cpu"`
	Benchmarks map[string]benchResult `json:"benchmarks"`
	Speedups   map[string]float64     `json:"speedups,omitempty"`
}

type gate struct {
	BOp      int64 `json:"b_op"`
	AllocsOp int64 `json:"allocs_op"`
	// TokS, when > 0, is a throughput floor on the benchmark's custom
	// tok/s metric: the run must reach TokS·(1 − tolerance). Baseline
	// values are set conservatively (well below a cold CI runner) because
	// throughput, unlike allocs, is machine-dependent.
	TokS float64 `json:"tok_s,omitempty"`
	// P99MS, when > 0, is a latency ceiling on the benchmark's custom p99ms
	// metric: the run must stay under P99MS·(1 + tolerance). Baselines set
	// it far above any healthy run — it exists to catch a collapsed queue,
	// not to measure machines.
	P99MS float64 `json:"p99_ms,omitempty"`
	// TTFTP99MS, when > 0, is the same kind of ceiling on the custom
	// ttftp99ms metric (p99 time-to-first-token): it catches a regression
	// that delays the first token — admission or prompt-step collapse —
	// which aggregate tok/s can hide.
	TTFTP99MS float64 `json:"ttft_p99_ms,omitempty"`
	// WBytes, when > 0, is an exact ceiling on the benchmark's custom
	// wbytes metric (packed resident weight bytes). No tolerance: packed
	// storage is a deterministic function of shape and bit width, so any
	// increase is a real regression in the bit budget's memory story.
	WBytes float64 `json:"wbytes,omitempty"`
}

// speedupSpec names a (parallel, serial) benchmark pair whose ns/op ratio
// serial÷parallel must reach Min (the baseline's min_speedup when 0). A
// pair is gated only when the run used at least MinProcs procs: 4 when 0,
// for pairs that measure fan-out; 1 for pairs that compare two kernels.
type speedupSpec struct {
	Parallel string  `json:"parallel"`
	Serial   string  `json:"serial"`
	Min      float64 `json:"min,omitempty"`
	MinProcs int     `json:"min_procs,omitempty"`
}

type baseline struct {
	// Tolerance is the allowed fractional regression over the gated
	// values, e.g. 0.20 fails anything more than 20% worse.
	Tolerance float64 `json:"tolerance"`
	// MinSpeedup is the required parallel-vs-serial ratio for the backward
	// kernels, enforced only when the run used ≥4 procs.
	MinSpeedup float64         `json:"min_speedup"`
	Gates      map[string]gate `json:"gates"`
	// Speedups adds baseline-specific pairs (e.g. the decode baseline's
	// batch-vs-serial throughput ratio) to the built-in kernel pairs.
	Speedups map[string]speedupSpec `json:"speedups,omitempty"`
}

// builtinSpeedups are the kernel pairs every run derives. MatMulT and
// TMatMul are the backward-pass kernels.
var builtinSpeedups = map[string]speedupSpec{
	"matmult_parallel_vs_serial": {Parallel: "KernelMatMulT512", Serial: "KernelMatMulTSerial512"},
	"tmatmul_parallel_vs_serial": {Parallel: "KernelTMatMul512", Serial: "KernelTMatMulSerial512"},
}

// speedupPairs merges the built-in kernel pairs with a baseline's own.
func speedupPairs(base *baseline) map[string]speedupSpec {
	pairs := map[string]speedupSpec{}
	for name, spec := range builtinSpeedups {
		pairs[name] = spec
	}
	if base != nil {
		for name, spec := range base.Speedups {
			pairs[name] = spec
		}
	}
	return pairs
}

func main() {
	in := flag.String("in", "", "bench output file (default stdin)")
	out := flag.String("out", "BENCH_kernels.json", "JSON artifact to write")
	basePath := flag.String("baseline", "", "baseline JSON to gate against (optional)")
	flag.Parse()

	r := io.Reader(os.Stdin)
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	var base *baseline
	if *basePath != "" {
		b, err := loadBaseline(*basePath)
		if err != nil {
			fatal(err)
		}
		base = &b
	}

	rep := report{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		Benchmarks: map[string]benchResult{},
	}
	if err := parseBench(r, rep.Benchmarks); err != nil {
		fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		fatal(fmt.Errorf("no benchmark lines found in input"))
	}
	rep.Speedups = deriveSpeedups(rep.Benchmarks, speedupPairs(base))

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(blob, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("benchguard: wrote %s (%d benchmarks)\n", *out, len(rep.Benchmarks))

	if base == nil {
		return
	}
	if errs := check(rep, *base); len(errs) > 0 {
		for _, e := range errs {
			fmt.Fprintf(os.Stderr, "benchguard: FAIL: %v\n", e)
		}
		os.Exit(1)
	}
	fmt.Println("benchguard: all gates passed")
}

// parseBench reads `go test -bench` text output. Lines look like
//
//	BenchmarkKernelMatMulT512-8  42  28405030 ns/op  28.34 MB/s  12 B/op  1 allocs/op
//
// with the -procs suffix omitted when GOMAXPROCS is 1 and the MB/s, B/op,
// allocs/op columns present only when the benchmark reports them. Of a
// benchmark's repeated lines the one with the lowest ns/op is kept, whole.
func parseBench(r io.Reader, out map[string]benchResult) error {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		procs := 1
		if i := strings.LastIndex(name, "-"); i >= 0 {
			if p, err := strconv.Atoi(name[i+1:]); err == nil {
				procs = p
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := benchResult{Procs: procs, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return fmt.Errorf("bad value %q in %q", fields[i], sc.Text())
			}
			switch fields[i+1] {
			case "ns/op":
				res.NsOp = v
			case "MB/s":
				res.MBs = v
			case "tok/s":
				res.TokS = v
			case "p99ms":
				res.P99MS = v
			case "ttftp99ms":
				res.TTFTP99MS = v
			case "wbytes":
				res.WBytes = v
			case "B/op":
				res.BOp = int64(v)
			case "allocs/op":
				res.AllocsOp = int64(v)
			}
		}
		if prev, seen := out[name]; !seen || res.NsOp < prev.NsOp {
			out[name] = res // of a benchmark's repetitions, the fastest
		}
	}
	return sc.Err()
}

func deriveSpeedups(benches map[string]benchResult, pairs map[string]speedupSpec) map[string]float64 {
	out := map[string]float64{}
	for name, spec := range pairs {
		par, okP := benches[spec.Parallel]
		ser, okS := benches[spec.Serial]
		if okP && okS && par.NsOp > 0 {
			out[name] = ser.NsOp / par.NsOp
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func loadBaseline(path string) (baseline, error) {
	var b baseline
	blob, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(blob, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	if b.Tolerance <= 0 {
		b.Tolerance = 0.20
	}
	if b.MinSpeedup <= 0 {
		b.MinSpeedup = 2.0
	}
	return b, nil
}

func check(rep report, base baseline) []error {
	var errs []error
	for name, g := range base.Gates {
		got, ok := rep.Benchmarks[name]
		if !ok {
			errs = append(errs, fmt.Errorf("gated benchmark %s missing from run", name))
			continue
		}
		if max := withTolerance(g.AllocsOp, base.Tolerance); got.AllocsOp > max {
			errs = append(errs, fmt.Errorf("%s: %d allocs/op exceeds baseline %d (+%.0f%% allowed)",
				name, got.AllocsOp, g.AllocsOp, base.Tolerance*100))
		}
		if max := withTolerance(g.BOp, base.Tolerance); got.BOp > max {
			errs = append(errs, fmt.Errorf("%s: %d B/op exceeds baseline %d (+%.0f%% allowed)",
				name, got.BOp, g.BOp, base.Tolerance*100))
		}
		if g.TokS > 0 {
			floor := g.TokS * (1 - base.Tolerance)
			if got.TokS < floor {
				errs = append(errs, fmt.Errorf("%s: %.0f tok/s below baseline %.0f (−%.0f%% allowed)",
					name, got.TokS, g.TokS, base.Tolerance*100))
			}
		}
		if g.P99MS > 0 {
			ceiling := g.P99MS * (1 + base.Tolerance)
			if got.P99MS > ceiling {
				errs = append(errs, fmt.Errorf("%s: p99 %.3fms exceeds baseline ceiling %.3fms (+%.0f%% allowed)",
					name, got.P99MS, g.P99MS, base.Tolerance*100))
			}
		}
		if g.TTFTP99MS > 0 {
			ceiling := g.TTFTP99MS * (1 + base.Tolerance)
			if got.TTFTP99MS > ceiling {
				errs = append(errs, fmt.Errorf("%s: ttft p99 %.3fms exceeds baseline ceiling %.3fms (+%.0f%% allowed)",
					name, got.TTFTP99MS, g.TTFTP99MS, base.Tolerance*100))
			}
		}
		if g.WBytes > 0 && got.WBytes > g.WBytes {
			errs = append(errs, fmt.Errorf("%s: %.0f resident weight bytes exceeds baseline ceiling %.0f (no tolerance: packed storage is deterministic)",
				name, got.WBytes, g.WBytes))
		}
	}
	for name, spec := range speedupPairs(&base) {
		minProcs := spec.MinProcs
		if minProcs <= 0 {
			minProcs = 4 // a fan-out speedup is defined on ≥4 cores
		}
		par, ok := rep.Benchmarks[spec.Parallel]
		if !ok || par.Procs < minProcs {
			continue
		}
		min := spec.Min
		if min <= 0 {
			min = base.MinSpeedup
		}
		if s, ok := rep.Speedups[name]; ok && s < min {
			errs = append(errs, fmt.Errorf("%s: speedup %.2f× below required %.2f× at %d procs",
				name, s, min, par.Procs))
		}
	}
	return errs
}

// withTolerance returns the largest value that still passes the gate,
// rounding up so small-integer baselines (e.g. 1 alloc/op) keep at least
// their own headroom.
func withTolerance(v int64, tol float64) int64 {
	return v + int64(float64(v)*tol+0.5)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchguard:", err)
	os.Exit(1)
}
