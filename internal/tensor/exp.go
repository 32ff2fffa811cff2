package tensor

import (
	"fmt"
	"math"
)

// The exp under every SiLU and softmax is math.Exp itself, in float64. On
// amd64, math.Exp is Shibata's SIMD-suitable method run one lane at a time;
// the assembly (sumcols_amd64.s, EXP4) runs the instructions of its FMA path
// four lanes wide, which rounds every lane exactly as math.Exp rounds it. So
// the reference is stated once (DESIGN.md §6): math.Exp's FMA path,
// lane-wise, used only where math uses it — useExp, which also asks math.Exp
// itself (expMatchesMath). Anywhere else the Go loops below, which call
// math.Exp, are the only path. Either way every result equals the Go loop's
// bit for bit.

// The sigmoid kernel's three products, in sigmoidGo's order.
const (
	opSiLU = iota
	opSiLUMul
	opSiLUGrad
)

// sigmoid is σ(v) as every kernel here defines it: float64 math.Exp, add and
// divide, rounded once to float32.
func sigmoid(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

// SiLU writes x[i]·σ(x[i]) to dst[i] (equal lengths; dst may be x).
func SiLU(dst, x []float32) { sigmoidOp("SiLU", dst, x, x, opSiLU) }

// SiLUMul is the SwiGLU gate in place: gate[i] ← gate[i]·σ(gate[i])·up[i],
// the products rounded left to right.
func SiLUMul(gate, up []float32) { sigmoidOp("SiLUMul", gate, gate, up, opSiLUMul) }

// SiLUGrad writes SiLU's input gradient, dst[i] = dy[i]·(s + x[i]·s·(1−s))
// with s = σ(x[i]), in float32 in that order (equal lengths; dst may alias x
// or dy).
func SiLUGrad(dst, x, dy []float32) { sigmoidOp("SiLUGrad", dst, x, dy, opSiLUGrad) }

// sigmoidOp runs op over whole groups of 4 through sigmoidAVX2 where useExp
// holds, a group with a lane outside the vector exp's range (|x| > 708, ±Inf,
// NaN) and the last len%4 elements through sigmoidGo, its reference.
func sigmoidOp(name string, dst, x, y []float32, op int) {
	n := len(x)
	if len(dst) != n || len(y) != n {
		panic(fmt.Sprintf("tensor: %s lengths dst %d x %d y %d", name, len(dst), n, len(y)))
	}
	i := 0
	if useExp {
		for n4 := n &^ 3; i < n4; {
			if i += sigmoidAVX2(&dst[i], &x[i], &y[i], n4-i, op); i < n4 {
				sigmoidGo(dst[i:i+4], x[i:i+4], y[i:i+4], op)
				i += 4
			}
		}
	}
	sigmoidGo(dst[i:], x[i:], y[i:], op)
}

func sigmoidGo(dst, x, y []float32, op int) {
	switch op {
	case opSiLU:
		for i, v := range x {
			dst[i] = v * sigmoid(v)
		}
	case opSiLUMul:
		for i, v := range x {
			dst[i] = v * sigmoid(v) * y[i]
		}
	case opSiLUGrad:
		for i, v := range x {
			s := sigmoid(v)
			dst[i] = y[i] * (s + v*s*(1-s))
		}
	}
}

// ExpShift is a softmax row's exp: e_i = math.Exp(float64(x[i] − m)), the
// difference a float32 subtraction. It writes float32(e_i) to dst[i] (equal
// lengths; dst may be x) and returns Σ e_i, added in float64 from 0 in
// ascending i. Whole groups of 4 go to expShiftAVX2 where useExp holds; a
// group with a lane outside the vector exp's range and the last len%4
// elements go to expShiftGo, its reference.
func ExpShift(dst, x []float32, m float32) float64 {
	n := len(x)
	if len(dst) != n {
		panic(fmt.Sprintf("tensor: ExpShift lengths dst %d x %d", len(dst), n))
	}
	var sum float64
	i := 0
	if useExp {
		for n4 := n &^ 3; i < n4; {
			var done int
			done, sum = expShiftAVX2(&dst[i], &x[i], n4-i, m, sum)
			if i += done; i < n4 {
				sum = expShiftGo(dst[i:i+4], x[i:i+4], m, sum)
				i += 4
			}
		}
	}
	return expShiftGo(dst[i:], x[i:], m, sum)
}

func expShiftGo(dst, x []float32, m float32, sum float64) float64 {
	for i, v := range x {
		e := math.Exp(float64(v - m))
		dst[i] = float32(e)
		sum += e
	}
	return sum
}

// The three row kernels below are the only definitions of a softmax, a
// log-sum-exp and an RMSNorm row (DESIGN.md §6, "One row arithmetic"):
// training, decode, the LUC probe and the vote all call them. None
// allocates.

// SoftmaxRow writes the softmax of scale·x to dst (equal lengths; dst may
// be x): each x[i]·scale rounded to float32 into dst, their max m (NaNs
// skipped; −Inf for an empty row), ExpShift(dst, dst, m) and its sum s,
// then every exp times float32(1/s).
func SoftmaxRow(dst, x []float32, scale float32) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: SoftmaxRow lengths dst %d x %d", len(dst), len(x)))
	}
	m := float32(math.Inf(-1))
	for i, v := range x {
		v *= scale
		dst[i] = v
		if v > m {
			m = v
		}
	}
	inv := float32(1 / ExpShift(dst, dst, m))
	for i := range dst {
		dst[i] *= inv
	}
}

// LogSumExpRow returns x's max m (NaNs skipped; −Inf for an empty row) and
// logSum = math.Log of ExpShift(scratch, x, m)'s sum, so that
// log Σ exp(x[i]) = m + logSum in whichever precision the caller adds them.
// scratch (len(x)) is left holding the shifted exps.
func LogSumExpRow(scratch, x []float32) (m float32, logSum float64) {
	m = float32(math.Inf(-1))
	for _, v := range x {
		if v > m {
			m = v
		}
	}
	return m, math.Log(ExpShift(scratch, x, m))
}

// RMSNormRow writes x[j]·inv·gain[j], rounded left to right, to dst (equal
// lengths; dst may be x) and returns inv = float32(1/√(Σx²/n + eps)), the
// sum of squares in float64 from 0 in ascending j.
func RMSNormRow(dst, x, gain []float32, eps float32) float32 {
	n := len(x)
	if len(dst) != n || len(gain) != n {
		panic(fmt.Sprintf("tensor: RMSNormRow lengths dst %d x %d gain %d", len(dst), n, len(gain)))
	}
	return rmsScale(dst, x, gain, sumSquaresFrom(0, x), eps)
}

// RMSNormRows is RMSNormRow over every row of x, rows of len(gain) floats,
// into the same rows of dst, with row i's inv stored in inv[i]. Four rows'
// sums of squares run side by side, each the sum RMSNormRow adds, so every
// row is RMSNormRow's bits.
func RMSNormRows(dst, x, gain []float32, eps float32, inv []float32) {
	c := len(gain)
	rows := len(inv)
	if len(x) != rows*c || len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: RMSNormRows lengths dst %d x %d for %d rows of %d", len(dst), len(x), rows, c))
	}
	i := 0
	for ; i+4 <= rows; i += 4 {
		x0, x1, x2, x3 := x[i*c:(i+1)*c], x[(i+1)*c:(i+2)*c], x[(i+2)*c:(i+3)*c], x[(i+3)*c:(i+4)*c]
		var s0, s1, s2, s3 float64
		for j, v := range x0 {
			s0 += float64(v) * float64(v)
			s1 += float64(x1[j]) * float64(x1[j])
			s2 += float64(x2[j]) * float64(x2[j])
			s3 += float64(x3[j]) * float64(x3[j])
		}
		for k, ss := range [4]float64{s0, s1, s2, s3} {
			r := i + k
			inv[r] = rmsScale(dst[r*c:(r+1)*c], x[r*c:(r+1)*c], gain, ss, eps)
		}
	}
	for ; i < rows; i++ {
		inv[i] = rmsScale(dst[i*c:(i+1)*c], x[i*c:(i+1)*c], gain, sumSquaresFrom(0, x[i*c:(i+1)*c]), eps)
	}
}

// rmsScale writes x[j]·inv·gain[j] to dst for the row whose sum of squares
// is ss and returns inv = float32(1/√(ss/n + eps)).
func rmsScale(dst, x, gain []float32, ss float64, eps float32) float32 {
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	for j, v := range x {
		dst[j] = v * inv * gain[j]
	}
	return inv
}

// expProbe holds float32s on which math.Exp's FMA and non-FMA paths round
// one float64 ulp apart.
var expProbe = [4]float32{1.6908053e-06, 8.881741e-06, 1.7567369e-05, 2.9830968e-05}

// expMatchesMath reports whether the vector exp returns math.Exp's bits on
// expProbe, that is, whether math.Exp takes its FMA path in this process.
func expMatchesMath() bool {
	var x, e [4]float64
	for i, p := range expProbe {
		x[i] = float64(p)
	}
	if expAVX2(&e[0], &x[0], 4) != 4 {
		return false
	}
	for i := range x {
		if e[i] != math.Exp(x[i]) {
			return false
		}
	}
	return true
}
