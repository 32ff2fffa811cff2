#!/usr/bin/env bash
# The decode path's identity guarantees under the race detector: a prompt fed
# in runs == token-at-a-time decode == Model.Logits over the whole sequence,
# bit for bit; batched == solo; scheduler output == a solo decode, whatever
# joins, leaves or is cancelled beside it; all of it with an adapter set too
# (on Model.Logits as LoRA hooks on its linears), and a packed backbone +
# adapter == the Unpack'ed float32 weights + the same adapter. Runs every
# Decoder/Scheduler/Adapter test of internal/nn and internal/serve (the
# random-schedule differential harnesses included) once, at the machine's
# default GOMAXPROCS. A result can depend on procs only where a kernel fans
# out (2^23 MACs a call, tensor.Bands), which no model of these tests reaches;
# the harnesses that compare procs switch to 1 and to 8 themselves. About a
# minute on two cores.
#
#   scripts/decode-identity.sh [log-file]    tee the test output to log-file
set -euo pipefail
cd "$(dirname "$0")/.."
log=${1:-/dev/null}
: >"$log"

echo "== Decoder|Scheduler|Adapter tests, -race, GOMAXPROCS=${GOMAXPROCS:-default}" | tee -a "$log"
go test -race -count=1 -run 'Decoder|Scheduler|Adapter' ./internal/nn ./internal/serve 2>&1 | tee -a "$log"
