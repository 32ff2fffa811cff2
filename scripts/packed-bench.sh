#!/usr/bin/env bash
# The packed path's gates, as CI's packed-bench job runs them (about six
# minutes on two cores):
#
#  1. the bitwise-identity suite under the race detector — fused ==
#     Unpack + MatMulInto, packed decode logits == the float32 model over
#     the Unpack'ed codes for every LUC bit assignment, the word-wise extractors against the
#     bit-loop oracle, the serialization round trip, the registry's 422 on a
#     packed artifact — at GOMAXPROCS default and 1;
#  2. the packed kernel benchmarks against BENCH_packed.json (0 allocs, exact
#     wbytes ceilings, fused ≥ dequantize-then-matmul, 2-bit level with
#     4-bit, 4-bit within reach of 8-bit) and the decode benchmarks against
#     BENCH_decode.json (0 allocs, tok/s floors, packed 4-bit ≥ float32 at
#     one and two rows, batch-8 ≥ 1.7× one-at-a-time), whole, at GOMAXPROCS=1 and
#     default, each benchmark the fastest of three passes (benchguard keeps
#     the fastest repetition; this class of host moves its clock by a quarter
#     between them). No step of the benchmark model reaches the fan-out
#     thresholds, so the 0-alloc gates hold at any GOMAXPROCS;
#  3. two governed packed decodes through the race-built CLI — uniform 4-bit
#     and a LUC mixed budget — asserting that packing released every float32
#     block-weight byte, the resident ratio, every stream verified against a
#     solo decode, and a drained KV arena.
#
#   scripts/packed-bench.sh [out-dir]     default ./packed-bench-out
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-packed-bench-out}
mkdir -p "$out"

echo "== 1. identity under -race"
go test -race -count=1 -run 'Pack|WordWise|DecodeRowsInto' \
  ./internal/tensor ./internal/quant ./internal/nn ./internal/serve 2>&1 | tee "$out/packed-tests.txt"
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
  bench3 'BenchmarkDecode(Step|Batch8|Batch2|OneAtATime8|Prefill64)' ./internal/nn | tee "$out/bench-decode$1.txt"
  go run ./cmd/benchguard -in "$out/bench-decode$1.txt" \
    -out "$out/BENCH_decode_run$1.json" -baseline BENCH_decode.json
}
GOMAXPROCS=1 gate -p1
(unset GOMAXPROCS; gate "")

echo "== 3. governed packed decodes (race-built CLI)"
go build -race -o "$out/edgellm-race" ./cmd/edgellm
decode() { # decode <name> <bits>
  "$out/edgellm-race" decode-bench -streams 8 -slots 4 -tokens 24 \
    -dim 64 -hidden 128 -vocab 256 -layers 2 -heads 4 \
    -bits "$2" -json 2>"$out/$1-err.txt" | tee "$out/$1.json"
}

# Packing must release every float32 block-weight byte back to the pool
# (drop == adopted), resident packed bytes must land at the analytic 4-bit
# ratio (4/32 plus per-column scales), every stream must verify bitwise
# against a solo decode, and the KV arena must drain to zero.
decode packed4 4
python3 - "$out/packed4.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['weight_pool_drop_bytes'] == r['weight_bytes_f32'], r
assert 0.125 <= r['weight_bytes_ratio'] <= 0.16, r
assert r['verified'] == r['streams'], r
assert r['arena_active_after'] == 0, r
print('packed4 OK: %d -> %d bytes (ratio %.4f), %d/%d verified'
      % (r['weight_bytes_f32'], r['weight_bytes_packed'],
         r['weight_bytes_ratio'], r['verified'], r['streams']))
EOF

# The LUC flow end to end: sensitivity probe, DP search under a 3.5-avg-bit
# budget, prune + fake-quantize, pack per policy. The packed footprint must
# stay under a fifth of float32 and the pool accounting must balance exactly.
decode packedluc luc@3.5
python3 - "$out/packedluc.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['weight_pool_drop_bytes'] == r['weight_bytes_f32'], r
assert r['weight_bytes_ratio'] < 0.2, r
assert r['verified'] == r['streams'], r
assert r['arena_active_after'] == 0, r
assert 'luc@3.50' in r['packed_spec'], r
print('packed luc OK:', r['packed_spec'])
EOF
echo "packed-bench: ok"
