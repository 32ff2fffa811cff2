#!/usr/bin/env bash
# Telemetry smoke: the quick T1 and T2 run with every telemetry sink on. The
# live endpoint is scraped while the suite runs (Prometheus text, a heap
# profile, expvar JSON); then the scrape must carry train_steps and a p99
# quantile, the Chrome trace must hold nested spans and a counter series,
# and `telemetry summary` / `telemetry diff` must read the JSONL back. CI's
# telemetry-smoke job runs exactly this script.
#
#   scripts/telemetry-smoke.sh [binary] [out-dir]
#
# binary defaults to one built here into out-dir (default
# ./telemetry-smoke-out, git-ignored); the suite log, JSONL, trace, scrapes,
# heap profile, summary and diff land there, which is what the CI job
# uploads. Needs curl, python3 and port 8971; ~30 s on two cores.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${2:-telemetry-smoke-out}
mkdir -p "$out"
bin=${1:-}
if [ -z "$bin" ]; then
  bin=$out/edgellm
  go build -o "$bin" ./cmd/edgellm
fi
bin=$(realpath "$bin")
cd "$out"

"$bin" experiments -quick -parallel 2 \
  -metrics run.jsonl -trace run.trace \
  -telemetry-addr 127.0.0.1:8971 T1 T2 >suite.log 2>&1 &
pid=$!
# Scrape until the first training step has been counted: the endpoint is up
# before the suite has recorded anything, and an early scrape is empty.
up=0
for _ in $(seq 1 150); do
  if curl -sf --max-time 2 http://127.0.0.1:8971/metrics >metrics.txt &&
    grep -q '^train_steps ' metrics.txt; then
    up=1; break
  fi
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.2
done
if [ "$up" -ne 1 ]; then
  echo "telemetry-smoke: the live endpoint never served train_steps"; cat suite.log; exit 1
fi
curl -sf -o heap.pprof http://127.0.0.1:8971/debug/pprof/heap
curl -sf http://127.0.0.1:8971/debug/vars >vars.json
wait "$pid"
cat suite.log

grep -q 'quantile="0.99"' metrics.txt
python3 - <<'PY'
import json
ev = json.load(open('run.trace'))
assert isinstance(ev, list) and len(ev) > 0, 'trace empty'
spans = [e for e in ev if e['ph'] == 'X']
assert any(e.get('args', {}).get('parent_id') for e in spans), 'no nested spans'
assert any(e['ph'] == 'C' for e in ev), 'no counter series'
print(len(ev), 'trace events,', len(spans), 'spans OK')
PY
python3 -m json.tool vars.json >/dev/null

"$bin" telemetry summary run.jsonl | tee summary.txt
grep -q 'train.step_ms' summary.txt
"$bin" telemetry diff run.jsonl run.jsonl | tee diff.txt
grep -q 'train.steps' diff.txt
echo "telemetry-smoke: ok"
