#!/usr/bin/env bash
# The kernel gates, as CI's bench-kernels job runs them:
#
#  1. the parallel kernels' determinism under the race detector:
#     byte-identical results at any GOMAXPROCS and on a fresh or stale arena;
#  1b. the arena poisoned: built with the poison tag, Pool.GetUncleared
#     fills every buffer it hands out with NaN, and the gradient checks,
#     the pinned tuning trajectory, the segmented backward, the no-grad
#     forward identity, the decoder identity suite and the pipelines and
#     baselines of core must still pass — no reader leans on a buffer's old
#     contents;
#  2. the kernel and training-step benchmarks against BENCH_baseline.json.
#     benchguard fails on a >20% regression in allocs/op or B/op of a gated
#     benchmark (ProbeOutputKL, WindowStep and Forward among them: a probe
#     or a window's frozen prefix back on the autograd forward allocates
#     ~20x and ~150x their bytes, and the no-grad forward must allocate
#     nothing), on the parallel backward kernels falling below 2x their
#     serial variants (with >= 4 cores), on MatMulT taking more than 1.5x
#     TMatMul, on the AdamW assembly falling below 1.5x its Go twin, or on
#     the fake-quant assembly falling below 3x its Go definition (both at
#     any core count);
#  3. the serving pairs at 1 and 4 procs, report only: what a decode step
#     gains from its lane team (one lane at 1 proc, min(procs, cores) at 4)
#     on real cores. AttendStep512 is a MaxSeq-512 step whose attention is
#     most of the work. A failure here is printed, not fatal.
#
#   scripts/bench-kernels.sh [out-dir]    default ./bench-kernels-out
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-bench-kernels-out}
mkdir -p "$out"

echo "== 1. determinism under -race"
go test -race -run 'Determinism' -count=1 ./internal/tensor ./internal/autograd ./internal/train

echo "== 1b. the arena poisoned with NaN"
go test -tags poison -count=1 ./internal/tensor ./internal/autograd ./internal/train ./internal/adapt ./internal/nn ./internal/serve \
  ./internal/core

echo "== 2. kernel benchmarks against BENCH_baseline.json"
go test -bench 'BenchmarkKernel|BenchmarkStep|BenchmarkAdamW|BenchmarkFakeQuant|BenchmarkProbeOutputKL|BenchmarkWindowStep$|BenchmarkForward$' \
  -benchmem -run '^$' ./internal/tensor ./internal/train ./internal/quant ./internal/luc ./internal/adapt ./internal/nn |
  tee "$out/bench-kernels.txt"
go run ./cmd/benchguard -in "$out/bench-kernels.txt" \
  -out "$out/BENCH_kernels.json" -baseline BENCH_baseline.json

echo "== 3. serving fan-out pairs at 1 and 4 procs (report only)"
go test -bench 'BenchmarkDecodeBatch8$|BenchmarkDecodePrefill64$|BenchmarkAttendStep512$' \
  -cpu 1,4 -benchmem -run '^$' -benchtime 100x -count 3 ./internal/nn | tee "$out/bench-fanout.txt" ||
  echo "bench-kernels: the fan-out pairs failed (report only)"
echo "bench-kernels: ok"
