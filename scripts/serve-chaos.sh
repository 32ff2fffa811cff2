#!/usr/bin/env bash
# Serve chaos soak: the in-process chaos and server tests under the race
# detector (faults in five serving stages — admission fail, token-hook
# panic, mid-stream cancel, watchdog-killed stall, corrupt adapter — plus a
# client disconnect and an overload flood: survivors equal solo decodes bit
# for bit, every failure is typed, the arena drains to zero after every
# phase); then scripts/serve-soak.sh against a race-built server; then the
# serve-path benchmarks gated against BENCH_serve.json (0 allocs a token
# through the scheduler at batch 1, no collapsed queue-wait p99, no
# throughput collapse). CI's serve-chaos job runs exactly this script.
#
#   scripts/serve-chaos.sh [out-dir]
#
# out-dir (default ./serve-chaos-out, git-ignored) receives the test log,
# the race-built CLI, the soak's out-dir (soak/: server.log, responses,
# access.jsonl, trace.json), the benchmark text and the benchguard run,
# which is what the CI job uploads. Needs curl and python3, and ports 18080
# and 18081 free. Ends "serve-chaos: ok".
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-serve-chaos-out}
mkdir -p "$out"

go test -race -count=1 \
  -run 'TestChaosSoak|TestServer|TestRegistry|TestSubmit|TestCancel|TestStreamPanic|TestWatchdog' \
  ./internal/serve ./internal/govern 2>&1 | tee "$out/chaos-tests.txt"

go build -race -o "$out/edgellm-race" ./cmd/edgellm
scripts/serve-soak.sh "$out/edgellm-race" "$out/soak"

go test -bench 'BenchmarkServe' -benchmem -run '^$' ./internal/serve | tee "$out/bench-serve.txt"
go run ./cmd/benchguard -in "$out/bench-serve.txt" \
  -out "$out/BENCH_serve_run.json" -baseline BENCH_serve.json

echo "serve-chaos: ok"
