#!/usr/bin/env bash
# The kernels off their fast path. On amd64 with AVX2 the dense and packed
# matmuls run through two assembly files; everywhere else — and here — the
# pure-Go kernels they sit beside are the only path (DESIGN.md §6, "The repo
# takes assembly"). An amd64 box runs 386 binaries natively, so GOARCH=386 is
# the one place the Go fallback executes the whole decoder identity suite
# (chunked == token-at-a-time == legacy, batched == solo, packed ==
# fake-quant), and the one place the loaders' size arithmetic meets a 32-bit
# int. arm64 is built and vetted, not run. go vet on the host checks the
# assembly's frames against their Go declarations (asmdecl). A few minutes.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== GOARCH=386 go test: tensor, quant, nn on the pure-Go kernels"
GOARCH=386 go test -count=1 ./internal/tensor ./internal/quant ./internal/nn

echo "== GOARCH=arm64 go build + go vet"
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./...

echo "== go vet (asmdecl) on $(go env GOARCH)"
go vet ./...
echo "portable: ok"
