#!/usr/bin/env bash
# Chaos soak of the fleet simulator: the package's determinism and
# chaos-invariance tests, one churning chaotic fleet simulated twice at
# different GOMAXPROCS / worker counts (reports byte-identical, and equal to
# the committed sha256), a solo re-run of chaos survivors, and a SIGTERM
# drain. CI's fleet-soak job runs exactly this script with -race.
#
#   scripts/fleet-soak.sh [-race] [binary] [out-dir]
#
# binary defaults to one built here (with -race when given) into out-dir
# (default ./fleet-soak-out, git-ignored); test output, both reports, their
# logs and the verify / drain logs land there, which is what the CI job
# uploads. -race also runs the package tests under the detector. Without it
# the whole script takes under a minute. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."
race=
if [ "${1:-}" = "-race" ]; then race=-race; shift; fi
out=${2:-fleet-soak-out}
mkdir -p "$out"
bin=${1:-}
if [ -z "$bin" ]; then
  bin=$out/edgellm
  go build $race -o "$bin" ./cmd/edgellm
fi
bin=$(realpath "$bin")
pins=$(realpath scripts/testdata)

# The guarantees at package level: byte-identical reports at
# Parallel=1/GOMAXPROCS=1 vs Parallel=8, chaos survivors bit-identical to
# solo runs, and the pool drained after full runs, mid-run cancels, and
# pre-cancelled contexts.
go test $race -count=1 ./internal/fleet ./internal/fault 2>&1 | tee "$out/fleet-tests.txt"
cd "$out"

# The same 24-device fleet with churn, crashes, stalls, transient faults,
# and cancels is simulated twice — once serially on one core, once with 8
# workers on all cores. The two JSON reports must be byte-identical, the
# chaos must actually fire (no vacuous pass), and the shared tensor arena
# must hold zero bytes after each run.
fleet="fleet -devices 24 -seed 11 -steps 24 -epoch 8 -churn 0.4 -fault 0.6 -events -json"
GOMAXPROCS=1 "$bin" $fleet -parallel 1 -metrics fleet-a.jsonl >fleet-a.json 2>fleet-a.log
cat fleet-a.log
"$bin" $fleet -parallel 8 -metrics fleet-b.jsonl >fleet-b.json 2>fleet-b.log
cat fleet-b.log
cmp fleet-a.json fleet-b.json
echo "fleet reports byte-identical across GOMAXPROCS/worker counts"
grep -q "drain proof: pool holds 0 B" fleet-a.log
grep -q "drain proof: pool holds 0 B" fleet-b.log
python3 - <<'PY'
import json
r = json.load(open('fleet-a.json'))
t = r['totals']
assert r['converged'] > 0 and r['failed'] == 0, t
assert t['crashes'] > 0 and t['stalls_killed'] > 0 and t['retries'] > 0, t
assert t['leaves'] > 0 and t['rejoins'] == t['leaves'], t
assert r['rung_counts'] or r['budget_unmet'] > 0, r['rung_counts']
assert len(r['events']) > 0, 'no merged timeline'
print('fleet soak OK: %d converged, %d crashes, %d stalls, %d leaves'
      % (r['converged'], t['crashes'], t['stalls_killed'], t['leaves']))
PY
grep -q '"kind":"fleet"' fleet-a.jsonl
# Budgets, rungs and step prices are the analytic model (train.EstimateMemory,
# hwsim.IterationCost); losses and fingerprints are float32 training, which
# fuses multiply-add off amd64.
if [ "$(go env GOARCH)" = "amd64" ]; then
  echo "$(cat "$pins/fleet-seed11.sha256")  fleet-a.json" | sha256sum -c -
else
  echo "fleet-soak: report sha256 was recorded on amd64; skipping the exact check"
fi

# Chaos invariance: re-run chaos-surviving devices solo (faults and churn
# stripped) and verify bit-identical final weights and loss.
"$bin" fleet -devices 16 -seed 11 -steps 24 -epoch 8 \
  -churn 0.4 -fault 0.6 -verify 3 >verify.txt 2>verify.log
cat verify.log
grep -q "chaos survivors bit-identical to their solo runs" verify.log

# SIGTERM mid-run: the command must drain gracefully, print the pool-drain
# proof, report the partial outcome, and exit 0.
"$bin" fleet -devices 64 -seed 11 -steps 24 -epoch 8 \
  -churn 0.4 -fault 0.6 >drain.txt 2>drain.log &
pid=$!
sleep 3
kill -TERM "$pid" 2>/dev/null || true
code=0
wait "$pid" || code=$?
cat drain.log
[ "$code" = 0 ] || { echo "fleet-soak: fleet exited $code on SIGTERM drain"; exit 1; }
grep -q "drain proof: pool holds 0 B" drain.log
echo "fleet-soak: ok"
