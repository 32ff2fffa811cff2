#!/usr/bin/env bash
# The packed path's gates, as CI's packed-bench job runs them (about six
# minutes on two cores):
#
#  1. the bitwise-identity suite under the race detector — fused ==
#     Unpack + MatMulInto, packed decode logits == the float32 model over
#     the Unpack'ed codes for every LUC bit assignment, the word-wise extractors against the
#     bit-loop oracle, the registry's 422 on an artifact of the wrong kind —
#     at GOMAXPROCS default and 1;
#  2. the packed kernel benchmarks against BENCH_packed.json (0 allocs, exact
#     wbytes ceilings, fused ≥ dequantize-then-matmul, 2-bit level with
#     4-bit, 4-bit within reach of 8-bit) and the decode benchmarks against
#     BENCH_decode.json (0 allocs, tok/s floors, packed 4-bit ≥ float32 at
#     one and two rows, batch-8 ≥ 1.7× one-at-a-time), whole, at
#     GOMAXPROCS=1 and default, each benchmark the fastest of three passes (benchguard keeps
#     the fastest repetition; this class of host moves its clock by a quarter
#     between them). A decode step's lane team allocates nothing at any lane
#     count, so the 0-alloc gates hold at any GOMAXPROCS.
#
# Step 1 also runs TestServeBitsWithAdapters (cmd/edgellm): packing releases
# exactly its float32 bytes from the weight pool, the resident ratio of
# uniform 4-bit and of luc@3.5, and concurrent packed streams, with and
# without an adapter, equal to solo decodes over a drained arena.
#
#   scripts/packed-bench.sh [out-dir]     default ./packed-bench-out
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-packed-bench-out}
mkdir -p "$out"

echo "== 1. identity under -race"
go test -race -count=1 -run 'Pack|WordWise|DecodeRowsInto|ServeBits' \
  ./internal/tensor ./internal/quant ./internal/nn ./internal/serve ./cmd/edgellm 2>&1 | tee "$out/packed-tests.txt"
GOMAXPROCS=1 go test -race -count=1 -run 'Pack|WordWise|DecodeRowsInto' \
  ./internal/tensor ./internal/nn 2>&1 | tee -a "$out/packed-tests.txt"

# Three passes over the benchmarks, not -count 3: that would run one
# benchmark's three repetitions back to back and a pair's two sides half a
# minute apart, and when the host's clock steps in between, the fastest of
# one side is compared with a slower level of the other. In a pass the two
# sides are seconds apart.
bench3() { # bench3 <pattern> <package>...
  for _ in 1 2 3; do go test -bench "$1" -benchmem -run '^$' "${@:2}"; done
}
gate() { # gate <suffix>, under the caller's GOMAXPROCS
  echo "== 2. benchmarks, GOMAXPROCS=${GOMAXPROCS:-default}"
  bench3 'BenchmarkPack' ./internal/tensor ./internal/quant | tee "$out/bench-packed$1.txt"
  go run ./cmd/benchguard -in "$out/bench-packed$1.txt" \
    -out "$out/BENCH_packed_run$1.json" -baseline BENCH_packed.json
  bench3 'BenchmarkDecode(Step|Batch8|Batch2|OneAtATime8|Prefill64|Prefill8)' ./internal/nn | tee "$out/bench-decode$1.txt"
  go run ./cmd/benchguard -in "$out/bench-decode$1.txt" \
    -out "$out/BENCH_decode_run$1.json" -baseline BENCH_decode.json
}
GOMAXPROCS=1 gate -p1
(unset GOMAXPROCS; gate "")

echo "packed-bench: ok"
