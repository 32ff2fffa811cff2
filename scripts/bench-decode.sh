#!/usr/bin/env bash
# The decode identity gate, as CI's bench-decode job runs it:
# scripts/decode-identity.sh — chunked prefill == token-at-a-time ==
# Model.Logits, batched == solo, scheduler output == solo decode, with and
# without an adapter set, packed + adapter == unpacked + adapter, under the
# race detector at the default GOMAXPROCS (the tests whose result could
# depend on procs set 1 and N themselves), its log kept in the out-dir.
#
# BENCH_decode.json's benchmark gates run in one place,
# scripts/packed-bench.sh (CI's packed-bench job): every gated decode
# benchmark at GOMAXPROCS=1 and at the default, the fastest of three passes.
# Refresh BENCH_decode.json per EXPERIMENTS.md.
#
#   scripts/bench-decode.sh [out-dir]    default ./bench-decode-out
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-bench-decode-out}
mkdir -p "$out"

scripts/decode-identity.sh "$out/decode-tests.txt"
echo "bench-decode: ok"
