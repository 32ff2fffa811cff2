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

// useAVX512 sends every whole group of four rows of a matmul call to
// sumTileAVX512 (64-column passes that prefetch b, then a 32-column pass
// for what n % 64 leaves) and a pair of rows left over to sumPairAVX512:
// amd64 with AVX-512F, read once at init. There is no switch; only tests
// turn it off, to run both kernels in one process.
var useAVX512 = useAVX2 && cpuHasAVX512F()

// sumColsRows is SumCols over rows output rows of one matmul call:
//
//	out[i·outStride : i·outStride+n] = SumCols(…, a[i·aRow:], aStride, b, bStride, k)
//
// for 0 ≤ i < rows, a blockSize-wide block of columns at a time, block-outer
// so that the rows reuse the block while it is cached. With the AVX-512
// kernels on, each whole group of four rows takes the block's columns down
// to a multiple of 32 in one sumTileAVX512 call, which computes the same
// sums four rows at a time: a full block in one 64-column pass that reads
// each weight once for the four rows and prefetches the rows of b ahead, so
// the first group streams a block that is not cached at memory rate and
// the next groups find it cached; a narrower last block in a 32-column
// pass. Two of the rows past a multiple of 4 go to sumPairAVX512 when the
// block is a full 64 columns, so that a two-row decode step streams each
// weight once; the columns a block leaves past a multiple of 32 and the
// rows neither kernel took go through SumCols, row by row.
func sumColsRows(out []float32, outStride, n int, a []float32, aRow, aStride int, b []float32, bStride, k, rows int) {
	wide := useAVX512 && k > 0
	rows4 := rows &^ 3
	for j0 := 0; j0 < n; j0 += blockSize {
		jw := min(blockSize, n-j0)
		i := 0
		if n32 := jw &^ 31; wide && n32 > 0 && rows4 > 0 {
			// The assembly checks no bounds: the last element each operand
			// is read or written at must exist.
			_, _, _ = out[(rows4-1)*outStride+j0+n32-1], a[(rows4-1)*aRow+(k-1)*aStride], b[(k-1)*bStride+j0+n32-1]
			for ; i < rows4; i += 4 {
				sumTileAVX512(&out[i*outStride+j0], outStride*4, n32, &a[i*aRow], aRow*4, aStride*4, &b[j0], bStride*4, k)
				if n32 < jw {
					for r := i; r < i+4; r++ {
						SumCols(out[r*outStride+j0+n32:r*outStride+j0+jw], a[r*aRow:], aStride, b[j0+n32:], bStride, k)
					}
				}
			}
		}
		if wide && jw == blockSize && rows-i >= 2 {
			_, _, _ = out[(i+1)*outStride+j0+jw-1], a[(i+1)*aRow+(k-1)*aStride], b[(k-1)*bStride+j0+jw-1]
			sumPairAVX512(&out[i*outStride+j0], outStride*4, jw, &a[i*aRow], aRow*4, aStride*4, &b[j0], bStride*4, k)
			i += 2
		}
		for ; i < rows; i++ {
			SumCols(out[i*outStride+j0:i*outStride+j0+jw], a[i*aRow:], aStride, b[j0:], bStride, k)
		}
	}
}

// HasAVX2 reports whether this process runs the AVX2 assembly: amd64 with
// AVX2, detected once at init. Packages with assembly of their own follow it,
// so one CPUID read decides for all of them.
func HasAVX2() bool { return useAVX2 }

// HasAVX512 reports whether this process runs the AVX-512 kernels, read by
// packages with assembly of their own as HasAVX2 is.
func HasAVX512() bool { return useAVX512 }

// KernelPath names the code path under the matmul kernels of this process:
// "avx512" (the AVX2 assembly with the AVX-512 tile kernel under every whole
// group of four rows of a matmul and the two-row pass under a pair of rows
// left over), "avx2" (the amd64 assembly alone) or "go" (the pure-Go
// reference, on any other GOARCH and on amd64 without AVX2). All three
// produce the same bits; benchmark manifests record the path so a timing is
// attributable to it.
func KernelPath() string {
	switch {
	case useAVX512:
		return "avx512"
	case useAVX2:
		return "avx2"
	}
	return "go"
}
