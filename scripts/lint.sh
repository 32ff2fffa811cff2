#!/usr/bin/env bash
# The lint gate, as CI's lint job runs it: every Go file gofmt-clean, then
# go vet over the module (./... includes the examples). Both write into lint.txt at the
# repo root (CI uploads it when the job fails); any gofmt finding or vet
# error exits non-zero.
#
#   scripts/lint.sh
set -euo pipefail
cd "$(dirname "$0")/.."
: > lint.txt

echo "== gofmt -l"
out=$(gofmt -l . | tee -a lint.txt)
if [ -n "$out" ]; then
  echo "files need gofmt:"
  echo "$out"
  exit 1
fi

echo "== go vet"
go vet ./... 2>&1 | tee -a lint.txt
echo "lint: ok"
