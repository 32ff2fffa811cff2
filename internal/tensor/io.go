package tensor

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"edgellm/internal/artifact"
)

// magic identifies the binary tensor serialisation format; bump the trailing
// digit on incompatible changes.
var magic = [4]byte{'E', 'L', 'T', '1'}

// WriteTo serialises t in a compact little-endian binary form:
// magic | rank | dims... | float32 data.
func (t *Tensor) WriteTo(w io.Writer) (int64, error) {
	var n int64
	if err := binary.Write(w, binary.LittleEndian, magic); err != nil {
		return n, err
	}
	n += 4
	if err := binary.Write(w, binary.LittleEndian, int32(len(t.Shape))); err != nil {
		return n, err
	}
	n += 4
	for _, d := range t.Shape {
		if err := binary.Write(w, binary.LittleEndian, int32(d)); err != nil {
			return n, err
		}
		n += 4
	}
	buf := make([]byte, 4*len(t.Data))
	for i, v := range t.Data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	w2, err := w.Write(buf)
	return n + int64(w2), err
}

// maxReadElems bounds the element count ReadFrom will accept (1 GiB of
// float32). A corrupted dimension in a damaged checkpoint must fail with a
// diagnostic error, not an out-of-memory crash.
const maxReadElems = 1 << 28

// ReadFrom deserialises a tensor previously written by WriteTo.
func ReadFrom(r io.Reader) (*Tensor, error) {
	var m [4]byte
	if err := binary.Read(r, binary.LittleEndian, &m); err != nil {
		return nil, err
	}
	if m != magic {
		return nil, fmt.Errorf("tensor: bad magic %q", m)
	}
	var rank int32
	if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
		return nil, err
	}
	if rank <= 0 || rank > 8 {
		return nil, fmt.Errorf("tensor: implausible rank %d", rank)
	}
	shape := make([]int, rank)
	n := int64(1) // a product of two dims does not fit a 32-bit int
	for i := range shape {
		var d int32
		if err := binary.Read(r, binary.LittleEndian, &d); err != nil {
			return nil, err
		}
		if d <= 0 {
			return nil, fmt.Errorf("tensor: non-positive dim %d", d)
		}
		shape[i] = int(d)
		n *= int64(d)
		if n > maxReadElems {
			return nil, fmt.Errorf("tensor: implausible element count %d (corrupt shape?)", n)
		}
	}
	// The tensor is built only once its bytes are in hand: the dims came
	// from outside, and a flipped bit in one must not cost its allocation.
	buf, err := artifact.ReadN(r, int(4*n))
	if err != nil {
		return nil, err
	}
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return t, nil
}
