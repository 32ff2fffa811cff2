#!/usr/bin/env bash
# Black-box soak of a (race-built) edgellm server: faults in every serving
# stage, two kinds of corrupt adapter artifact, a slow client, an overload
# flood and a SIGTERM with a stalled stream in flight. Survivors must decode
# deterministically, every failure must be a typed error with the right
# status, the server must exit 0 having drained its KV arena to zero, and the
# access log and trace must account for every request. CI's serve-chaos job
# runs exactly this script.
#
#   go build -race -o edgellm-race ./cmd/edgellm
#   scripts/serve-soak.sh [binary] [out-dir]
#
# binary defaults to ./edgellm-race; server.log, every response, access.jsonl,
# trace.json and metrics.txt are written to out-dir (default ./serve-soak-out,
# git-ignored), which is what the CI job uploads. Needs curl and python3, and
# ports 18080 and 18081 free.
set -euo pipefail
bin=$(realpath "${1:-./edgellm-race}")
out=${2:-serve-soak-out}
mkdir -p "$out"
cd "$out"

mkdir -p adapters
echo "this is not an adapter artifact" > adapters/rot
# A well-framed adapter — magic, header, footer with a valid checksum — whose
# first tensor declares 2^14 x 2^14 floats over no payload: the loader must
# refuse it without allocating the gigabyte it declares.
python3 - <<'PY'
import json, struct, zlib
hdr = json.dumps({"name": "huge", "alpha": 4, "rank": 2, "targets": ["block0.wq"]}).encode()
body = b"ELLMADP1" + struct.pack("<I", len(hdr)) + hdr + b"ELT1" + struct.pack("<iii", 2, 1 << 14, 1 << 14)
open("adapters/huge", "wb").write(body + b"ELCF" + struct.pack("<I", zlib.crc32(body)))
PY

"$bin" serve -addr 127.0.0.1:18080 -slots 2 -queue 2 \
  -deadline 5s -stall-timeout 1s -drain-timeout 5s \
  -adapters ./adapters \
  -fault 'fail=FAIL1,cancel=CANCEL1,panic=PANIC1,stall=STALL1,stall=STALL2,stall=STALL3' \
  -access-log access.jsonl -trace trace.json \
  -slo 'p99_ttft_ms=500,availability=0.9' -slo-interval 1s \
  -telemetry-addr 127.0.0.1:18081 \
  2>server.log &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
  curl -sf --max-time 2 http://127.0.0.1:18080/healthz >/dev/null && break
  kill -0 "$pid" 2>/dev/null || { echo "server died on startup"; cat server.log; exit 1; }
  sleep 0.2
done

post() { # post <body-json> <out-file> -> prints http code
  curl -s -o "$2" -w '%{http_code}' -X POST \
    http://127.0.0.1:18080/v1/generate -d "$1"
}
check_error() { # check_error <file> <want-code>
  python3 - "$1" "$2" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))
assert r.get('error'), 'missing error: %r' % r
assert r.get('code') == sys.argv[2], 'code %r, want %r' % (r.get('code'), sys.argv[2])
PY
}
expect() { # expect <id> <body-json> <out-file> <status> [error-code]
  code=$(post "$2" "$3")
  [ "$code" = "$4" ] || { echo "$1 got $code, want $4"; cat "$3"; exit 1; }
  [ -z "${5:-}" ] || check_error "$3" "$5"
}

# Determinism probe: the same greedy request decoded twice (before and after
# the fault traffic) must produce identical tokens.
expect probe1 '{"id":"probe1","prompt":[1,2,3],"max_tokens":8}' probe1.json 200

# Injected admission failure: well-formed 503.
expect FAIL1 '{"id":"FAIL1","prompt":[1,2],"max_tokens":8}' fail1.json 503 injected_fault
# Mid-stream cancel: typed 500, slot reclaimed.
expect CANCEL1 '{"id":"CANCEL1","prompt":[1,2],"max_tokens":8}' cancel1.json 500 cancelled
# Poisoned token hook: contained panic, typed 500.
expect PANIC1 '{"id":"PANIC1","prompt":[1,2],"max_tokens":8}' panic1.json 500 stream_panic
# Corrupt adapter artifacts — garbage, and the lying dimension — are clean
# 422s, never a crash; a missing one is a 404.
expect rot '{"id":"rot1","adapter":"rot","prompt":[1,2],"max_tokens":4}' rot.json 422 adapter_corrupt
expect huge '{"id":"huge1","adapter":"huge","prompt":[1,2],"max_tokens":4}' huge.json 422 adapter_corrupt
expect ghost '{"id":"ghost1","adapter":"ghost","prompt":[1,2],"max_tokens":4}' ghost.json 404 adapter_not_found
# Forced stall: the watchdog kills the stream with a typed 504.
expect STALL1 '{"id":"STALL1","prompt":[1,2],"max_tokens":8}' stall1.json 504 stalled

# Slow client walking away mid-stream: the server must shrug it off.
timeout 1 curl -sN --limit-rate 10 -X POST http://127.0.0.1:18080/v1/generate \
  -d '{"id":"slow1","prompt":[1,2],"max_tokens":16,"stream":true}' >/dev/null || true
curl -sf http://127.0.0.1:18080/healthz >/dev/null

# Overload while a stalled stream blocks the decode loop: a concurrent flood
# against the bounded queue (2 slots + 2 waiters) must shed with well-formed
# 429s instead of growing the queue. The flood is fired in parallel so it
# lands inside the 1s stall window — a sequential flood would just wait the
# stall out.
post '{"id":"STALL2","prompt":[1,2],"max_tokens":8}' stall2.json >/dev/null &
stall2=$!
sleep 0.3
flood_pids=""
for i in $(seq 1 10); do
  post "{\"id\":\"flood$i\",\"prompt\":[3],\"max_tokens\":4}" "flood$i.json" >"flood$i.code" &
  flood_pids="$flood_pids $!"
done
wait "$stall2" || true
for p in $flood_pids; do wait "$p" || true; done
shed=0
for i in $(seq 1 10); do
  if [ "$(cat "flood$i.code")" = 429 ]; then
    check_error "flood$i.json" overloaded
    shed=$((shed+1))
  fi
done
[ "$shed" -ge 1 ] || { echo "no 429s during overload"; cat flood*.code; exit 1; }
echo "overload shed $shed of 10"

# Mid-soak observability scrape: the SLO burn-rate gauges and the per-tenant
# TTFT dist must be live on /metrics while traffic — including the fault
# traffic above — is still in recent history.
sleep 1.5  # let the 1s SLO sampler tick at least once
curl -sf http://127.0.0.1:18081/metrics > metrics.txt
grep -q 'serve_slo_burn_rate{objective="p99_ttft_ms"' metrics.txt
grep -q 'serve_slo_burn_rate{objective="availability"' metrics.txt
grep -q 'serve_ttft_ms' metrics.txt
curl -sf http://127.0.0.1:18080/statusz | python3 -c "
import json,sys
s=json.load(sys.stdin)
assert 'slo' in s and len(s['slo'])==2, 'statusz missing slo block: %r' % s
print('statusz slo:', json.dumps(s['slo'])[:200])
"

# Back to healthy: the determinism probe must reproduce exactly.
for i in $(seq 1 50); do
  active=$(curl -sf http://127.0.0.1:18080/statusz | python3 -c 'import json,sys; print(json.load(sys.stdin)["active_requests"])')
  [ "$active" = 0 ] && break
  sleep 0.2
done
expect probe2 '{"id":"probe2","prompt":[1,2,3],"max_tokens":8}' probe2.json 200
python3 -c "
import json
a=json.load(open('probe1.json'))['tokens']; b=json.load(open('probe2.json'))['tokens']
assert a==b, 'greedy decode diverged across the soak: %r vs %r' % (a,b)
print('probe tokens stable across soak:', a)
"

# SIGTERM with a stalled stream in flight: drain must cancel it, verify the
# arena empties, and exit 0.
post '{"id":"STALL3","prompt":[1,2],"max_tokens":8}' stall3.json >/dev/null &
sleep 0.5
kill -TERM "$pid"
set +e
wait "$pid"
code=$?
set -e
cat server.log
[ "$code" = 0 ] || { echo "server exited $code on SIGTERM drain"; exit 1; }
grep -q "drained cleanly: arena active bytes 0" server.log
wait || true

# Post-drain: every access-log line must parse and every request ID must be
# unique (-strict fails otherwise), and the soak's requests must be
# reconstructable from their IDs in both the access log and the Perfetto
# trace.
"$bin" telemetry serve-report -strict access.jsonl
for id in probe1 FAIL1 CANCEL1 PANIC1 STALL1 probe2; do
  grep -q "\"id\":\"$id\"" access.jsonl || { echo "request $id missing from access log"; exit 1; }
  grep -q "\"req\":\"$id\"" trace.json || { echo "request $id missing from trace"; exit 1; }
done
python3 -c "
import json
trace=json.load(open('trace.json'))
names={e.get('name','') for e in trace if e.get('ph')=='X'}
for want in ('serve.request','serve.admission','serve.queue','serve.decode','serve.flush','decode.step'):
    assert any(n==want or n.startswith(want+'{') for n in names), 'span %s missing from trace: %r' % (want, sorted(names)[:20])
print('trace spans ok:', len(trace), 'events')
"
grep -q '"stall_killed"' access.jsonl || { echo "stall annotation missing from access log"; exit 1; }
echo "serve-soak: ok"
