#!/usr/bin/env bash
# The decode path's identity guarantees under the race detector: a prompt fed
# in runs == token-at-a-time decode == Model.Logits over the whole sequence,
# bit for bit; batched == solo; scheduler output == a solo decode, whatever
# joins, leaves or is cancelled beside it; all of it with an adapter set too
# (on Model.Logits as LoRA hooks on its linears), and a packed backbone +
# adapter == the Unpack'ed float32 weights + the same adapter. Runs every
# Decoder/Scheduler/Adapter test of internal/nn and internal/serve (the
# random-schedule differential harnesses included) twice: at the machine's
# default GOMAXPROCS, and at GOMAXPROCS=4, where a decoder's lane team
# (min(GOMAXPROCS, NumCPU) lanes) has four lanes on a 4-core runner and holds
# fewer lanes than Ps on a 2-core one; the lane-count test also runs the
# identity tests at 1 to 4 lanes, four lanes on two cores being an
# oversubscribed team. The harnesses that compare procs switch to 1 and to 8
# themselves. A few minutes on two cores.
#
#   scripts/decode-identity.sh [log-file]    tee the test output to log-file
set -euo pipefail
cd "$(dirname "$0")/.."
log=${1:-/dev/null}
: >"$log"

echo "== Decoder|Scheduler|Adapter tests, -race, GOMAXPROCS=${GOMAXPROCS:-default}" | tee -a "$log"
go test -race -count=1 -run 'Decoder|Scheduler|Adapter' ./internal/nn ./internal/serve 2>&1 | tee -a "$log"
echo "== Decoder|Scheduler|Adapter tests, -race, GOMAXPROCS=4" | tee -a "$log"
GOMAXPROCS=4 go test -race -count=1 -run 'Decoder|Scheduler|Adapter' ./internal/nn ./internal/serve 2>&1 | tee -a "$log"
