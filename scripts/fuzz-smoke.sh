#!/usr/bin/env bash
# Fuzz every Fuzz* target in the module for 10 s each (about three minutes in
# all). `go test ./...` already runs each target over its seed corpus; this
# lets the engine mutate — the loaders of outside bytes (checkpoint, adapter,
# the /v1/generate body) get inputs no seed holds,
# and the packed matmul kernel gets shapes, widths and data no table test
# lists, each held to the dense kernel over Unpack bit for bit; the three
# assembly kernels (FuzzSumCols, FuzzPackedSIMD, FuzzAdamW) get shapes,
# strides, base alignments, optimizer steps and special values, each held to
# its Go twin (FuzzPackedSIMD at one activation row and two); the AVX-512
# tile kernel (FuzzMatMulRows), which takes every whole group of four rows,
# gets row counts with 0-3 rows left over, widths, k, a's row and k strides, padding,
# alignments and special values, each row held to sumColsGo, under both the
# tile kernel and the AVX2 sweep; the two kernels over the vector exp
# (FuzzSigmoid: SiLU, SiLUMul, SiLUGrad; FuzzExpShift: dst and the in-order sum, in place too)
# get lengths, alignments, input scales, m and special values, each held to
# its math.Exp loop; and the one-pass
# sampler (FuzzSampleLogits) gets rows full of ties, NaN, ±Inf, extreme
# temperatures and every K, held to the selection-sort reference on the token
# and on the RNG state it leaves. A crasher is
# written to the package's testdata/fuzz/<target>/ and fails the script:
# commit it with the fix, it becomes a seed.
#
# -fuzzminimizetime 1s: the engine's default spends up to a minute shrinking
# each interesting input, which on a multi-KB artifact is the whole budget.
set -euo pipefail
cd "$(dirname "$0")/.."

grep -r --include='*_test.go' -o '^func Fuzz[A-Za-z0-9_]*' . | sort | while IFS=: read -r file fn; do
  pkg=$(dirname "$file") target=${fn#func }
  echo "== $pkg $target"
  go test -run '^$' -fuzz "^$target\$" -fuzztime 10s -fuzzminimizetime 1s "$pkg"
done
echo "fuzz-smoke: ok"
