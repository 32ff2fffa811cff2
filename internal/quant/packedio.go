package quant

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"edgellm/internal/artifact"
	"edgellm/internal/tensor"
)

// A packed weight matrix is an artifact (DESIGN.md, "Artifacts") of kind
// "ELLMPKD1" with a fixed binary header in place of the JSON one:
//
//	kind<<8|bits, rows, cols, blockSize (0 for uniform), nScale, nCodes
//	(six uint32) | scales float32-LE | codes
//
// The magic differs from the adapter kind's, so a packed artifact requested
// *as an adapter* fails at the magic check (HTTP 422 at the front end).
var packedMagic = artifact.Magic{'E', 'L', 'L', 'M', 'P', 'K', 'D', '1'}

const (
	packedKindUniform = 0
	packedKindNF      = 1

	// maxPackedDim bounds header-declared dimensions and their product, so
	// no artifact holds more than 256 MiB of codes. The header arithmetic
	// below is done in int64 — a uint32 field or a product of two does not
	// fit a 32-bit int — and everything that passes the bound does fit one:
	// at most 2^28 elements, 2^31 − 8 as a bit offset, 2^30 scale bytes.
	maxPackedDim = 1 << 28
)

// WriteTo serialises the packed matrix as a packed artifact, implementing
// io.WriterTo.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	return writePacked(w, packedKindUniform, p.Bits, p.Rows, p.Cols, 0, p.Scale, p.Codes)
}

// WriteTo serialises the packed matrix as a packed artifact, implementing
// io.WriterTo.
func (p *PackedNF) WriteTo(w io.Writer) (int64, error) {
	return writePacked(w, packedKindNF, p.Bits, p.Rows, p.Cols, p.BlockSize, p.Scale, p.Codes)
}

func writePacked(w io.Writer, kind, bits, rows, cols, block int, scale []float32, codes []byte) (int64, error) {
	aw := artifact.NewWriter(w, packedMagic)
	hdr := []uint32{uint32(kind)<<8 | uint32(bits), uint32(rows), uint32(cols), uint32(block), uint32(len(scale)), uint32(len(codes))}
	if err := binary.Write(aw, binary.LittleEndian, hdr); err != nil {
		return aw.Size(), fmt.Errorf("quant: write packed header: %w", err)
	}
	if err := binary.Write(aw, binary.LittleEndian, scale); err != nil {
		return aw.Size(), fmt.Errorf("quant: write packed scales: %w", err)
	}
	if _, err := aw.Write(codes); err != nil {
		return aw.Size(), fmt.Errorf("quant: write packed codes: %w", err)
	}
	if err := aw.Close(); err != nil {
		return aw.Size(), fmt.Errorf("quant: write packed footer: %w", err)
	}
	return aw.Size(), nil
}

// ReadPackedFrom reads one packed artifact written by WriteTo, verifying
// the checksum before returning. The result is a *Packed or *PackedNF (both
// tensor.PackedMat). Truncated, bit-flipped, or malformed artifacts fail
// with a diagnostic error — never a panic — and the header's counts are
// cross-checked against its shape before a byte of payload is read.
func ReadPackedFrom(r io.Reader) (tensor.PackedMat, error) {
	ar, err := artifact.NewReader(r, packedMagic)
	if err != nil {
		return nil, fmt.Errorf("quant: not an edgellm packed-weight artifact: %w", err)
	}
	var hdr [6]uint32
	if err := binary.Read(ar, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("quant: read packed header: %w", err)
	}
	kind, bits := int(hdr[0]>>8), int(hdr[0]&0xff)
	rows, cols, block := int64(hdr[1]), int64(hdr[2]), int64(hdr[3])
	nScale, nCodes := int64(hdr[4]), int64(hdr[5])
	if kind != packedKindUniform && kind != packedKindNF {
		return nil, fmt.Errorf("quant: unknown packed kind %d", kind)
	}
	if bits < 2 || bits > 8 {
		return nil, fmt.Errorf("quant: packed bits %d out of [2,8]", bits)
	}
	if rows < 1 || cols < 1 || rows > maxPackedDim || cols > maxPackedDim || rows*cols > maxPackedDim {
		return nil, fmt.Errorf("quant: implausible packed shape (%d,%d)", rows, cols)
	}
	if want := packedCodeBytes(rows, cols, bits); nCodes != want {
		return nil, fmt.Errorf("quant: packed code bytes %d, want %d for (%d,%d)@%db", nCodes, want, rows, cols, bits)
	}
	var wantScale int64
	switch kind {
	case packedKindUniform:
		if block != 0 {
			return nil, fmt.Errorf("quant: uniform packed artifact declares block size %d", block)
		}
		wantScale = cols
	case packedKindNF:
		if block < 1 || block > rows*cols {
			return nil, fmt.Errorf("quant: packed NF block size %d out of [1,%d]", block, rows*cols)
		}
		wantScale = (rows*cols + block - 1) / block
	}
	if nScale != wantScale {
		return nil, fmt.Errorf("quant: packed scale count %d, want %d", nScale, wantScale)
	}
	raw, err := artifact.ReadN(ar, int(4*nScale))
	if err != nil {
		return nil, fmt.Errorf("quant: read packed scales: %w", err)
	}
	codes, err := artifact.ReadN(ar, int(nCodes))
	if err != nil {
		return nil, fmt.Errorf("quant: read packed codes: %w", err)
	}
	if err := ar.Verify(); err != nil {
		return nil, fmt.Errorf("quant: packed artifact: %w", err)
	}
	scale := make([]float32, nScale)
	for i := range scale {
		scale[i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*i:]))
	}
	if kind == packedKindNF {
		cb := NFScheme{Bits: bits}.Codebook()
		for i := 0; i < int(rows*cols); i++ {
			if code := int(readBits(codes, i*bits, bits)); code >= len(cb) {
				return nil, fmt.Errorf("quant: packed NF code %d at element %d is outside the %d-entry codebook", code, i, len(cb))
			}
		}
		return &PackedNF{Bits: bits, Rows: int(rows), Cols: int(cols), BlockSize: int(block), Codes: codes, Scale: scale, codebook: cb}, nil
	}
	return &Packed{Bits: bits, Rows: int(rows), Cols: int(cols), Codes: codes, Scale: scale}, nil
}

// WritePackedFile writes a packed artifact atomically, so a crashed save
// never leaves a torn artifact in a registry directory.
func WritePackedFile(path string, p io.WriterTo) error {
	return artifact.WriteFile(path, func(w io.Writer) error {
		_, err := p.WriteTo(w)
		return err
	})
}
