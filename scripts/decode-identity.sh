#!/usr/bin/env bash
# The decode path's identity guarantees under the race detector: a prompt fed
# in runs == token-at-a-time decode == the legacy scalar decoder, bit for bit;
# batched == solo; scheduler output == a solo decode, whatever joins, leaves
# or is cancelled beside it; all of it with an adapter set too (the legacy
# decoder carries the scalar side path), and a packed backbone + adapter ==
# the Unpack'ed float32 weights + the same adapter. Runs every
# Decoder/Scheduler/Adapter test of internal/nn and internal/serve (the
# random-schedule differential harnesses included), with the process at
# GOMAXPROCS=1 and then at the machine's default; the harnesses also switch to
# 1 and to 8 procs themselves. About two minutes on two cores.
#
#   scripts/decode-identity.sh [log-file]    tee the test output to log-file
set -euo pipefail
cd "$(dirname "$0")/.."
log=${1:-/dev/null}
: >"$log"

tests() {
  echo "== Decoder|Scheduler|Adapter tests, -race, GOMAXPROCS=${GOMAXPROCS:-default}" | tee -a "$log"
  go test -race -count=1 -run 'Decoder|Scheduler|Adapter' ./internal/nn ./internal/serve 2>&1 | tee -a "$log"
}
GOMAXPROCS=1 tests
(unset GOMAXPROCS; tests)
