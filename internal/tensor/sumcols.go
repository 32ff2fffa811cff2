package tensor

// SumCols is the one inner loop under the dense matmuls, the packed tile
// sweep and decode attention (nn.Decoder: scores over transposed keys, the
// context over value rows):
//
//	out[j] = Σ_k a[k·aStride] · b[k·bStride + j]    0 ≤ j < len(out)
//
// Every output element is one ascending-k float32 sum from +0 (the product
// rounded, then the add rounded — never fused) that skips each a == 0, -0
// included, so a zero activation against an Inf weight contributes nothing
// while a NaN activation is multiplied through. Against a loop that does not
// skip, that is the only difference: a sum from +0 never becomes -0, so
// adding a finite ±0 product changes no bit. It panics, like an index, when
// a or b is too short for k and len(out). sumColsGo is that
// definition in Go and the only kernel on every GOARCH but amd64; on amd64
// with AVX2, whole groups of 8 columns go to sumColsAVX2, which computes the
// same sums eight columns to a register (DESIGN.md §6), and only what
// len(out)%8 leaves over goes to sumColsGo.
func SumCols(out, a []float32, aStride int, b []float32, bStride, k int) {
	n := len(out)
	if n == 0 {
		return
	}
	if k == 0 {
		clear(out)
		return
	}
	// The assembly checks no bounds: the last element each operand is read
	// at must exist.
	_, _ = a[(k-1)*aStride], b[(k-1)*bStride+n-1]
	n8 := 0
	if useAVX2 {
		if n8 = n &^ 7; n8 > 0 {
			sumColsAVX2(&out[0], n8, &a[0], aStride*4, &b[0], bStride*4, k)
		}
	}
	if n8 < n {
		sumColsGo(out[n8:], a, aStride, b[n8:], bStride, k)
	}
}

// sumColsGo is SumCols' reference: eight columns at a time, the eight sums
// in locals for the whole k sweep and one store per element; the fewer than
// eight columns a width that is not a multiple of 8 leaves over accumulate
// through out's storage instead.
func sumColsGo(out, a []float32, aStride int, b []float32, bStride, k int) {
	n8 := len(out) &^ 7
	for j := 0; j < n8; j += 8 {
		var s0, s1, s2, s3, s4, s5, s6, s7 float32
		for kk := 0; kk < k; kk++ {
			av := a[kk*aStride]
			if av == 0 {
				continue
			}
			t := (*[8]float32)(b[kk*bStride+j:])
			s0 += av * t[0]
			s1 += av * t[1]
			s2 += av * t[2]
			s3 += av * t[3]
			s4 += av * t[4]
			s5 += av * t[5]
			s6 += av * t[6]
			s7 += av * t[7]
		}
		o := (*[8]float32)(out[j:])
		o[0], o[1], o[2], o[3], o[4], o[5], o[6], o[7] = s0, s1, s2, s3, s4, s5, s6, s7
	}
	tail := out[n8:]
	clear(tail)
	for kk := 0; kk < k && len(tail) > 0; kk++ {
		av := a[kk*aStride]
		if av == 0 {
			continue
		}
		for j, bv := range b[kk*bStride+n8 : kk*bStride+len(out)] {
			tail[j] += av * bv
		}
	}
}

// KernelPath names the code path under the matmul kernels of this process:
// "avx2" (the amd64 assembly) or "go" (the pure-Go reference, on any other
// GOARCH and on amd64 without AVX2). Both produce the same bits; benchmark
// manifests record the path so a timing is attributable to it.
func KernelPath() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}
