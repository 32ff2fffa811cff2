#!/usr/bin/env bash
# Decode fault smoke: twelve streams over four slots through a race-built
# `decode-bench`, with streams S3 and S7 force-cancelled at their halfway
# token. decode-bench itself enforces the invariants: every cancelled slot is
# reclaimed (the arena drains to zero bytes) and every surviving stream's
# tokens equal an uninjected solo decode. Its requests sample at temperature
# 0.8 and top-k 40, so this also runs the one-pass sampler and the
# column-lane attention under -race against solo decodes. The assertions
# below pin the churn shape. CI's decode-smoke job runs exactly this script.
#
#   scripts/decode-smoke.sh [binary] [out-dir]
#
# binary defaults to one built here with -race into out-dir (default
# ./decode-smoke-out, git-ignored); the JSON report and decode-bench's stderr
# land there, which is what the CI job uploads. Needs python3; ~20 s.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${2:-decode-smoke-out}
mkdir -p "$out"
bin=${1:-}
if [ -z "$bin" ]; then
  bin=$out/edgellm-race
  go build -race -o "$bin" ./cmd/edgellm
fi

"$bin" decode-bench -streams 12 -slots 4 -tokens 24 \
  -dim 64 -hidden 128 -vocab 256 -layers 2 -heads 4 \
  -fault fail=S3,fail=S7 -json 2>"$out/smoke-err.txt" | tee "$out/decode-smoke.json"
python3 - "$out/decode-smoke.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r['arena_active_after'] == 0, r
assert r['cancelled'] == ['S3', 'S7'], r
assert r['verified'] == 10, r
assert r['tokens_fed'] > 0 and r['steps'] > 0, r
print('decode smoke OK:', r['tokens_fed'], 'tokens,',
      r['steps'], 'steps,', len(r['cancelled']), 'cancelled')
PY
echo "decode-smoke: ok"
