#!/usr/bin/env bash
# Regenerate the committed experiment tables from the binary, or check them.
#
#   scripts/regen-results.sh           rewrite results_full.md (full sizes,
#                                      ~90 s at -parallel 2) and
#                                      results_quick.md (-quick, ~25 s)
#   scripts/regen-results.sh --check   CI mode: rerun at quick sizes only and
#                                      fail on any difference from
#                                      results_quick.md
#
# Every cell is a pure function of the seeds (identical at any -parallel),
# except the wall-clock cells — A1's probe time, A2's and A5's search times —
# and the closing timing line. Those are masked so the files diff clean
# between runs and machines.
set -euo pipefail
cd "$(dirname "$0")/.."

mask() {
  awk -F'|' -v OFS='|' '
    /^### /  { sec = $0; sub(/^### /, "", sec); sub(/:.*/, "", sec); body = 0 }
    /^\|---/ { body = 1; print; next }
    /^all experiments regenerated in / { next }
    /^\| / && body {
      if (sec == "A1") $3 = " (wall-clock) "
      if (sec == "A2") { $6 = " (wall-clock) "; $7 = " (wall-clock) " }
      if (sec == "A5") $5 = " (wall-clock) "
    }
    { print }'
}

run() { go run ./cmd/edgellm experiments -markdown -parallel 2 "$@" | mask; }

if [ "${1:-}" = "--check" ]; then
  # Go fuses multiply-add off amd64, which moves float32 training
  # trajectories in the last bits and the rounded cells with them.
  if [ "$(go env GOARCH)" != "amd64" ]; then
    echo "regen-results: tables were recorded on amd64; skipping the exact check on $(go env GOARCH)"
    exit 0
  fi
  tmp=$(mktemp)
  trap 'rm -f "$tmp"' EXIT
  run -quick > "$tmp"
  if ! diff -u results_quick.md "$tmp"; then
    echo "regen-results: quick-size tables differ from results_quick.md;" \
      "if the change is intended, run scripts/regen-results.sh and commit both files" >&2
    exit 1
  fi
  echo "regen-results: quick-size tables match results_quick.md"
  exit 0
fi

run -quick > results_quick.md
run > results_full.md
echo "regen-results: wrote results_quick.md and results_full.md"
