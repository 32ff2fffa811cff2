// Package tensor provides the dense float32 tensor type and the numeric
// kernels (matmul, elementwise maps, reductions) that every higher layer of
// the Edge-LLM reproduction is built on.
//
// Tensors are row-major and of arbitrary rank, but the hot paths are rank-2
// (matrices) because the transformer implementation flattens (batch, seq)
// into the row dimension. The matmul-family kernels (MatMul, MatMulT,
// TMatMul) all accumulate in float32 so swapping one kernel for an
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

// AddInPlace adds o into t elementwise.
func (t *Tensor) AddInPlace(o *Tensor) {
	t.mustSameShape(o, "AddInPlace")
	for i, v := range o.Data {
		t.Data[i] += v
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
	for i, v := range o.Data {
		t.Data[i] *= v
	}
}

// ScaleInPlace multiplies every element of t by s.
func (t *Tensor) ScaleInPlace(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
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

// ApplyInPlace replaces each element of t with f(element).
func (t *Tensor) ApplyInPlace(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
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

// Max returns the maximum element.
func (t *Tensor) Max() float32 {
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element.
func (t *Tensor) Min() float32 {
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// AbsMax returns the maximum absolute element value.
func (t *Tensor) AbsMax() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// Norm2 returns the Euclidean (Frobenius) norm of t.
func (t *Tensor) Norm2() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
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
