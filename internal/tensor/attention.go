package tensor

// AttendHead computes causal self-attention for one (sequence, head): T
// positions of an hd-wide head whose q, k, v and out rows sit c floats apart,
// each slice starting at the head's first element. It is the arithmetic the
// training attention (autograd.CausalAttention) and the no-grad forward
// (nn.Forward) share, so the two agree bit for bit. Every dot product and
// weighted sum runs on SumCols, as decode attention does (DESIGN.md §6): the
// keys are transposed into kT (hd rows Tp = T rounded up to 8 apart), and
// query t's scores over keys 0..t are one SumCols call over whole groups of
// 8 lanes, scaled and normalised by SoftmaxRow; its context is one SumCols
// over the value rows, out[t] = Σ_s p_ts·v_s. Each score and context element
// is the ascending sum from +0 the scalar loop computed.
//
// sc is one query's scores (Tp floats). probs, when non-nil, receives the
// (T, T) attention matrix for a backward pass, row t in probs[t·T : t·T+t+1];
// nil normalises each row in place in sc and keeps nothing. The caller need
// not clear kT, sc or probs: the lanes past position t that the rounding to
// 8 adds are computed from whatever kT holds there and never read, and
// probs above the diagonal are never written.
func AttendHead(out, q, k, v []float32, c, T, hd int, scale float32, kT, sc, probs []float32) {
	Tp := (T + 7) &^ 7
	TransposeHead(kT, Tp, k, T, hd, c)
	for t := 0; t < T; t++ {
		n := t + 1
		SumCols(sc[:(n+7)&^7], q[t*c:], 1, kT, Tp, hd)
		p := sc[:n]
		if probs != nil {
			p = probs[t*T : t*T+n]
		}
		SoftmaxRow(p, sc[:n], scale)
		SumCols(out[t*c:t*c+hd], p, 1, v, c, n)
	}
}

// TransposeHead writes one (sequence, head)'s T × hd block of a (B·T, c)
// activation — src from its first element, rows c apart — transposed into
// dst, hd rows ld apart: dst[d·ld + s] = src[s·c + d]. Columns T..ld−1 of
// dst are left as they are.
func TransposeHead(dst []float32, ld int, src []float32, T, hd, c int) {
	for s := 0; s < T; s++ {
		row := src[s*c : s*c+hd]
		for d, x := range row {
			dst[d*ld+s] = x
		}
	}
}
