#!/usr/bin/env bash
# The quick experiment suite under injected faults, then under a hard memory
# budget with an injected stall. Both runs must degrade instead of crashing
# (exit 1, one FAILED row each), and the governor's decision list must equal
# the committed one byte for byte. CI's suite-soak job runs exactly this
# script with -race.
#
#   scripts/suite-soak.sh [-race] [binary] [out-dir]
#
# binary defaults to one built here (with -race when given) into out-dir
# (default ./suite-soak-out, git-ignored); both runs' stdout, stderr and the
# governed run's JSONL land there, which is what the CI job uploads. Without
# -race the script takes about two minutes on two cores (the second run
# lasts until its 1m stage deadline kills the stalled row); -race only sizes
# that deadline for the detector's 10-20x slowdown. Needs python3.
set -euo pipefail
cd "$(dirname "$0")/.."
race=
if [ "${1:-}" = "-race" ]; then race=-race; shift; fi
out=${2:-suite-soak-out}
mkdir -p "$out"
bin=${1:-}
if [ -z "$bin" ]; then
  bin=$out/edgellm
  go build $race -o "$bin" ./cmd/edgellm
fi
bin=$(realpath "$bin")
pins=$(realpath scripts/testdata)
cd "$out"

# "smoke" injects a permanent panic into F5 and a retried transient failure
# into T3. The run must finish every other experiment, emit a degraded row
# for F5, recover T3 via retry, and exit 1 (degraded, not crashed).
code=0
"$bin" experiments -quick -parallel 4 -fault smoke >fault-out.txt 2>fault-err.txt || code=$?
cat fault-out.txt fault-err.txt
if [ "$code" -ne 1 ]; then
  echo "suite-soak: expected exit code 1 (degraded), got $code"
  exit 1
fi
grep -q "FAILED (degraded result)" fault-out.txt
grep -q "injected panic in F5" fault-out.txt
grep -q "1 of .* experiments failed" fault-err.txt
# T3's transient fault must have been recovered, not degraded.
if grep -q "T3: " fault-err.txt; then
  echo "suite-soak: T3 should have recovered via retry"
  exit 1
fi

# The whole quick suite under a hard memory budget of half the analytic
# vanilla-FT peak plus a per-stage deadline, with a stall injected into F6.
# The suite must complete every other experiment (degrading instead of
# aborting), record the ladder decisions in the stderr summary and the JSONL
# record, kill the stalled row at the stage deadline, and exit 1 (degraded,
# not crashed or hung). The slowest quick experiment takes ~15 s un-raced,
# so 1m (10m under the race detector) leaves headroom while still bounding
# the injected stall.
stage=1m
[ -n "$race" ] && stage=10m
code=0
timeout 25m "$bin" experiments -quick -parallel 2 \
  -mem-budget half-vanilla -stage-timeout "$stage" \
  -metrics govern.jsonl -fault stall=F6 >govern-out.txt 2>govern-err.txt || code=$?
cat govern-out.txt govern-err.txt
if [ "$code" -ne 1 ]; then
  echo "suite-soak: expected exit code 1 (stalled row degraded), got $code"
  exit 1
fi
grep -q "FAILED (degraded result)" govern-out.txt
grep -q "stage F6 stalled" govern-out.txt
grep -q "resource governor: mem budget" govern-err.txt
grep -q "degradation decisions" govern-err.txt
grep -q '"kind":"govern"' govern.jsonl
grep -q '"rung"' govern.jsonl
# Only the stalled row may fail; degradation is not failure.
grep -q "1 of .* experiments failed" govern-err.txt

# Every decision is a pure function of the analytic memory model
# (train.EstimateMemory), so the list is pinned to the byte; recorded on
# amd64 and skipped elsewhere, the way regen-results.sh --check is.
python3 - <<'PY' >governed-decisions.txt
import json
for line in open('govern.jsonl'):
    rec = json.loads(line)
    if rec.get('kind') == 'govern':
        for d in rec['govern']['decisions']:
            print(d['task'], d['trigger'], d['rung'], d['detail'],
                  d['before_bytes'], '->', d['after_bytes'])
PY
if [ "$(go env GOARCH)" = "amd64" ]; then
  diff -u "$pins/governed-decisions.txt" governed-decisions.txt
else
  echo "suite-soak: decision list was recorded on amd64; skipping the exact check"
fi
echo "suite-soak: ok"
