#!/usr/bin/env bash
# The kernels off their fast path. There are three kernel paths
# (tensor.KernelPath): "avx512" (amd64 with AVX-512F: the AVX2 assembly plus
# the 4 × 32 tile kernel under every whole group of four rows), "avx2" (amd64
# with AVX2: the dense and packed matmuls through two assembly files) and
# "go"; everywhere else — and here — the pure-Go kernels they sit beside are
# the only path (DESIGN.md §6, "The repo takes assembly" and "The tile"). An amd64 box runs 386 binaries natively, so GOARCH=386 is
# the one place the Go fallback executes the whole decoder identity suite
# (chunked == token-at-a-time == Model.Logits, batched == solo, packed ==
# fake-quant) and the training tests on the Go AdamW twin, on the Go
# SumCols under attention and the backward matmuls and on the math.Exp loops
# under SiLU and softmax (sumcols_other.go stubs every assembly routine), and
# the one place the
# loaders' size arithmetic meets a 32-bit int. arm64 is built and vetted,
# not run. go vet on the host checks the assembly's frames against their Go
# declarations (asmdecl). A few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== GOARCH=386 go test: tensor, quant, nn, autograd, train, adapt on the pure-Go kernels"
GOARCH=386 go test -count=1 ./internal/tensor ./internal/quant ./internal/nn \
  ./internal/autograd ./internal/train ./internal/adapt

echo "== GOARCH=arm64 go build + go vet"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./...

echo "== go vet (asmdecl) on $(go env GOARCH)"
go vet ./...
echo "portable: ok"
