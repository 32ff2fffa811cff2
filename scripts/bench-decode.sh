#!/usr/bin/env bash
# The decode gates, as CI's bench-decode job runs them:
#
#  1. scripts/decode-identity.sh: chunked prefill == token-at-a-time ==
#     Model.Logits, batched == solo, scheduler output == solo decode, with
#     and without an adapter set, packed + adapter == unpacked + adapter,
#     under the race detector at the default GOMAXPROCS (the tests whose
#     result could depend on procs set 1 and N themselves);
#  2. the decode benchmarks against BENCH_decode.json. benchguard fails on
#     a >20% regression in decode tok/s, allocs/token or B/token of a gated
#     benchmark, on batch-8 decoding falling below 1.7x one-at-a-time
#     throughput, on packed 4-bit falling behind float32 at one or two
#     rows, or on a two-row step costing more than 1.25x a one-row step
#     (fastest of the three repetitions, any core count). Refresh
#     BENCH_decode.json per EXPERIMENTS.md.
#
#   scripts/bench-decode.sh [out-dir]    default ./bench-decode-out
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-bench-decode-out}
mkdir -p "$out"

scripts/decode-identity.sh "$out/decode-tests.txt"

echo "== decode benchmarks against BENCH_decode.json"
go test -bench 'BenchmarkDecode' -benchmem -run '^$' -benchtime 100x -count 3 \
  ./internal/nn | tee "$out/bench-decode.txt"
go run ./cmd/benchguard -in "$out/bench-decode.txt" \
  -out "$out/BENCH_decode_run.json" -baseline BENCH_decode.json
echo "bench-decode: ok"
