#!/usr/bin/env bash
# The lint gate, as CI's lint job runs it: every Go file gofmt-clean, then
# go vet over the module (./... includes the examples), then the docs'
# citations: every Test…, Benchmark… and Fuzz… name that README.md,
# DESIGN.md, EXPERIMENTS.md or the verify skill cites must begin the name of
# a function in a _test.go file (a -run or -bench pattern cites a prefix),
# and every scripts/… path they cite must exist. All three write into
# lint.txt at the repo root (CI uploads it when the job fails); any finding
# or vet error exits non-zero.
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

echo "== doc citations"
docs="README.md DESIGN.md EXPERIMENTS.md .claude/skills/verify/SKILL.md"
out=$({
  grep -rhoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' --include='*_test.go' . | sed 's/^func /defined /'
  grep -noE '\b(Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*' $docs | sed 's/^/cited /'
} | awk '
  $1 == "defined" { defined[$2] = 1; next }
  {
    split($2, c, ":")
    for (d in defined) if (index(d, c[3]) == 1) next
    print c[1] ":" c[2] ": no test function begins " c[3]
  }')
for cite in $(grep -noE '\bscripts/[A-Za-z0-9_./-]*[A-Za-z0-9_/-]' $docs); do
  [ -e "${cite#*:*:}" ] || out+=$'\n'"${cite%:*}: no such path ${cite#*:*:}"
done
if [ -n "$out" ]; then
  echo "docs cite what the tree does not hold:"
  echo "$out" | sed '/^$/d' | tee -a lint.txt
  exit 1
fi
echo "lint: ok"
