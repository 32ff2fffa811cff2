#!/usr/bin/env bash
# The vector exp under SiLU and softmax against math.Exp on every one of the
# 2^32 float32 bit patterns (DESIGN.md §6, "One exact exp"): the float64 exp
# itself bit for bit on each, SiLU on each, SiLUMul, SiLUGrad and ExpShift on
# every 16th block of 4096. Every input a kernel hands the exp is float64 of a
# float32, so this covers all of them. tier-1 runs the same sweep at stride
# 97. About a minute on two cores; on a machine without the vector exp it
# compares the Go loops with themselves. Ends "exp-exhaustive: ok".
set -euo pipefail
cd "$(dirname "$0")/.."

go test -count=1 -tags expsweep -timeout 30m -run '^TestExpExhaustive$' -v ./internal/tensor
echo "exp-exhaustive: ok"
