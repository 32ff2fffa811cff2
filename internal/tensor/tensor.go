// Package tensor provides the dense float32 tensor type and the numeric
// kernels (matmul, elementwise maps, reductions) that every higher layer of
// the Edge-LLM reproduction is built on.
//
// Tensors are row-major and of arbitrary rank, but the hot paths are rank-2
// (matrices) because the transformer implementation flattens (batch, seq)
// into the row dimension. The matmul-family kernels (MatMulInto,
// MatMulTInto, TMatMulInto) all accumulate in float32 so swapping one kernel for an
// equivalent one cannot change results; whole-tensor reductions (Sum, Mean,
// Dot, Norm2) accumulate in float64 where the extra precision is cheap and
// keeps tiny-model training numerically stable without a float64 tensor
// type.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
//
// The zero value is not usable; construct tensors with New, Zeros, Full,
// FromSlice, or the random constructors in rng.go.
type Tensor struct {
	// Data holds the elements in row-major order. Its length always equals
	// the product of Shape.
	Data []float32
	// Shape holds the extent of each dimension. A scalar has Shape []int{1}.
	Shape []int
}

// New returns a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := checkShape(shape)
	return &Tensor{Data: make([]float32, n), Shape: append([]int(nil), shape...)}
}

// Full returns a tensor of the given shape with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// Ones returns a tensor of the given shape filled with 1.
func Ones(shape ...int) *Tensor { return Full(1, shape...) }

// FromSlice wraps data in a tensor with the given shape. The slice is used
// directly (not copied); the caller must not alias it unintentionally.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := checkShape(shape)
	if len(data) != n {
		panic(fmt.Sprintf("tensor: FromSlice data length %d does not match shape %v (need %d)", len(data), shape, n))
	}
	return &Tensor{Data: data, Shape: append([]int(nil), shape...)}
}

// Scalar returns a rank-1, length-1 tensor holding v.
func Scalar(v float32) *Tensor { return FromSlice([]float32{v}, 1) }

func checkShape(shape []int) int {
	if len(shape) == 0 {
		panic("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.Data) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Rows returns the first dimension of a rank-2 tensor.
func (t *Tensor) Rows() int { t.mustRank(2); return t.Shape[0] }

// Cols returns the second dimension of a rank-2 tensor.
func (t *Tensor) Cols() int { t.mustRank(2); return t.Shape[1] }

func (t *Tensor) mustRank(r int) {
	if len(t.Shape) != r {
		panic(fmt.Sprintf("tensor: need rank %d, have shape %v", r, t.Shape))
	}
}

// At returns the element at the given rank-2 coordinates.
func (t *Tensor) At(i, j int) float32 { return t.Data[i*t.Shape[1]+j] }

// Set assigns the element at the given rank-2 coordinates.
func (t *Tensor) Set(i, j int, v float32) { t.Data[i*t.Shape[1]+j] = v }

// Row returns the i-th row of a rank-2 tensor as a slice aliasing t.Data.
func (t *Tensor) Row(i int) []float32 {
	c := t.Cols()
	return t.Data[i*c : (i+1)*c]
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// CopyFrom copies src's elements into t. Shapes must have equal element
// counts; shapes themselves may differ (used by reshape-style callers).
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic(fmt.Sprintf("tensor: CopyFrom length mismatch %d vs %d", len(t.Data), len(src.Data)))
	}
	copy(t.Data, src.Data)
}

// Reshape returns a view of t (sharing Data) with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := checkShape(shape)
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (len %d) to %v (len %d)", t.Shape, len(t.Data), shape, n))
	}
	return &Tensor{Data: t.Data, Shape: append([]int(nil), shape...)}
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// String renders small tensors fully and large tensors as a summary.
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v", t.Shape)
	if len(t.Data) <= 16 {
		fmt.Fprintf(&b, "%v", t.Data)
	} else {
		fmt.Fprintf(&b, "[%g %g %g ... %g] mean=%.4g", t.Data[0], t.Data[1], t.Data[2], t.Data[len(t.Data)-1], t.Mean())
	}
	return b.String()
}

// --- elementwise operations -------------------------------------------------

func (t *Tensor) mustSameShape(o *Tensor, op string) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: %s shape mismatch %v vs %v", op, t.Shape, o.Shape))
	}
}

// AddInPlace adds o into t elementwise; o may be t itself, but no other
// overlap of the two. Each element is one float32 add, so on amd64 with AVX2
// whole groups of 8 go to addAVX2 and only what len%8 leaves over to addGo,
// its reference.
func (t *Tensor) AddInPlace(o *Tensor) {
	t.mustSameShape(o, "AddInPlace")
	n8 := 0
	if useAVX2 {
		if n8 = len(o.Data) &^ 7; n8 > 0 {
			_ = t.Data[n8-1]
			addAVX2(&t.Data[0], &o.Data[0], n8)
		}
	}
	addGo(t.Data[n8:], o.Data[n8:])
}

func addGo(dst, src []float32) {
	for i, v := range src {
		dst[i] += v
	}
}

// SubInPlace subtracts o from t elementwise.
func (t *Tensor) SubInPlace(o *Tensor) {
	t.mustSameShape(o, "SubInPlace")
	for i, v := range o.Data {
		t.Data[i] -= v
	}
}

// MulInPlace multiplies t by o elementwise.
func (t *Tensor) MulInPlace(o *Tensor) {
	t.mustSameShape(o, "MulInPlace")
	MulInto(t.Data, t.Data, o.Data)
}

// MulInto writes a[i]·b[i] to dst[i] (equal lengths; dst may alias a or b):
// one correctly rounded float32 product an element, a the first operand. On
// amd64 with AVX2, whole groups of 8 go to mulAVX2, eight to a register, and
// only what len%8 leaves over to mulGo.
func MulInto(dst, a, b []float32) {
	n := len(dst)
	if len(a) != n || len(b) != n {
		panic(fmt.Sprintf("tensor: MulInto lengths dst %d a %d b %d", n, len(a), len(b)))
	}
	n8 := 0
	if useAVX2 {
		if n8 = n &^ 7; n8 > 0 {
			mulAVX2(&dst[0], &a[0], &b[0], n8)
		}
	}
	mulGo(dst[n8:], a[n8:], b[n8:])
}

func mulGo(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v * b[i]
	}
}

// ScaleInPlace multiplies every element of t by s, eight to a register on
// amd64 with AVX2 (scaleAVX2), the rest through scaleGo.
func (t *Tensor) ScaleInPlace(s float32) {
	n8 := 0
	if useAVX2 {
		if n8 = len(t.Data) &^ 7; n8 > 0 {
			scaleAVX2(&t.Data[0], n8, s)
		}
	}
	scaleGo(t.Data[n8:], s)
}

func scaleGo(x []float32, s float32) {
	for i := range x {
		x[i] *= s
	}
}

// AxpyInPlace performs t += alpha * o elementwise.
func (t *Tensor) AxpyInPlace(alpha float32, o *Tensor) {
	t.mustSameShape(o, "AxpyInPlace")
	for i, v := range o.Data {
		t.Data[i] += alpha * v
	}
}

// Add returns t + o elementwise.
func Add(t, o *Tensor) *Tensor {
	r := t.Clone()
	r.AddInPlace(o)
	return r
}

// Sub returns t - o elementwise.
func Sub(t, o *Tensor) *Tensor {
	r := t.Clone()
	r.SubInPlace(o)
	return r
}

// Mul returns t * o elementwise (Hadamard product).
func Mul(t, o *Tensor) *Tensor {
	r := t.Clone()
	r.MulInPlace(o)
	return r
}

// Scale returns s * t.
func Scale(t *Tensor, s float32) *Tensor {
	r := t.Clone()
	r.ScaleInPlace(s)
	return r
}

// Apply returns a new tensor whose elements are f applied to t's elements.
func Apply(t *Tensor, f func(float32) float32) *Tensor {
	r := New(t.Shape...)
	for i, v := range t.Data {
		r.Data[i] = f(v)
	}
	return r
}

// --- reductions --------------------------------------------------------------

// Sum returns the sum of all elements, accumulated in float64.
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 { return t.Sum() / float64(len(t.Data)) }

// Norm2 returns the Euclidean (Frobenius) norm of t.
func (t *Tensor) Norm2() float64 { return math.Sqrt(sumSquaresFrom(0, t.Data)) }

// JointNorm returns the Euclidean norm of several tensors' data taken
// together, as the root of Σ_i Norm2(xs[i])², summed in order — bit for bit
// that loop over Norm2, with the per-slice sums computed by sumSquares.
func JointNorm(xs [][]float32) float64 {
	var buf [64]float64
	sums := buf[:0]
	if len(xs) > len(buf) {
		sums = make([]float64, 0, len(xs))
	}
	sums = sums[:len(xs)]
	sumSquares(sums, xs)
	var ss float64
	for _, s := range sums {
		n := math.Sqrt(s)
		ss += n * n
	}
	return math.Sqrt(ss)
}

// sumSquares sets sums[i] to xs[i]'s sum of squares, Σ float64(v)², added
// from 0 in ascending order — the sum Norm2 takes the root of, bit for bit.
// Each sum is one chain of float64 adds, each waiting on the last, so four
// lanes run four chains side by side: each lane sums one slice, and when
// it ends, stores the sum and takes the next slice not yet begun. The
// fewer than four slices left when the queue runs dry finish one at a time.
func sumSquares(sums []float64, xs [][]float32) {
	if len(sums) != len(xs) {
		panic(fmt.Sprintf("tensor: sumSquares %d sums for %d slices", len(sums), len(xs)))
	}
	at := [4]int{-1, -1, -1, -1} // the slice each lane sums, -1 when idle
	var rest [4][]float32
	var acc [4]float64
	next, busy := 0, 0
	take := func(l int) {
		if next < len(xs) {
			at[l], rest[l], acc[l] = next, xs[next], 0
			next++
			busy++
		}
	}
	for l := range at {
		take(l)
	}
	for busy == 4 {
		n := min(len(rest[0]), len(rest[1]), len(rest[2]), len(rest[3]))
		a, b, c, d := rest[0][:n], rest[1][:n], rest[2][:n], rest[3][:n]
		s0, s1, s2, s3 := acc[0], acc[1], acc[2], acc[3]
		for j, v := range a {
			s0 += float64(v) * float64(v)
			s1 += float64(b[j]) * float64(b[j])
			s2 += float64(c[j]) * float64(c[j])
			s3 += float64(d[j]) * float64(d[j])
		}
		acc = [4]float64{s0, s1, s2, s3}
		for l := range rest {
			if rest[l] = rest[l][n:]; len(rest[l]) == 0 {
				sums[at[l]], at[l] = acc[l], -1
				busy--
				take(l)
			}
		}
	}
	for l, i := range at {
		if i >= 0 {
			sums[i] = sumSquaresFrom(acc[l], rest[l])
		}
	}
}

// sumSquaresFrom continues a sum of squares s over x in ascending order.
func sumSquaresFrom(s float64, x []float32) float64 {
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return s
}

// Dot returns the inner product of t and o viewed as flat vectors.
func Dot(t, o *Tensor) float64 {
	t.mustSameShape(o, "Dot")
	var s float64
	for i, v := range t.Data {
		s += float64(v) * float64(o.Data[i])
	}
	return s
}

// MSE returns the mean squared error between t and o.
func MSE(t, o *Tensor) float64 {
	t.mustSameShape(o, "MSE")
	var s float64
	for i, v := range t.Data {
		d := float64(v) - float64(o.Data[i])
		s += d * d
	}
	return s / float64(len(t.Data))
}

// CountNonZero returns the number of non-zero elements in t.
func (t *Tensor) CountNonZero() int {
	n := 0
	for _, v := range t.Data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Sparsity returns the fraction of elements in t that are exactly zero.
func (t *Tensor) Sparsity() float64 {
	return 1 - float64(t.CountNonZero())/float64(len(t.Data))
}

// --- equality helpers ---------------------------------------------------------

// AllClose reports whether all elements of t and o are within atol + rtol*|o|.
func AllClose(t, o *Tensor, rtol, atol float64) bool {
	if !t.SameShape(o) {
		return false
	}
	for i, v := range t.Data {
		diff := math.Abs(float64(v) - float64(o.Data[i]))
		if diff > atol+rtol*math.Abs(float64(o.Data[i])) {
			return false
		}
	}
	return true
}
