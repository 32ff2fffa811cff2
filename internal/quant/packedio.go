package quant

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"edgellm/internal/tensor"
)

// Packed artifact container format (checkpoint-v2 style, crash-safe):
//
//	magic "ELLMPKD1" | kind uint8 (0 uniform, 1 NF) | bits uint8 |
//	rows uint32 | cols uint32 | blockSize uint32 (0 for uniform) |
//	nScale uint32 | nCodes uint32 | scales float32-LE | codes |
//	footer "ELCF" | uint32 CRC32-IEEE over every preceding byte
//
// The CRC footer turns truncation or bit flips into diagnostic load
// errors, so a packed weight artifact dropped into a serving registry
// directory can never be silently mis-decoded — and, because the magic
// differs from the adapter format's, requesting one *as an adapter* fails
// cleanly at the magic check (HTTP 422 at the front end), never a panic.
var packedMagic = [8]byte{'E', 'L', 'L', 'M', 'P', 'K', 'D', '1'}

// packedFooter matches the checkpoint-v2 footer convention.
var packedFooter = [4]byte{'E', 'L', 'C', 'F'}

const (
	packedKindUniform = 0
	packedKindNF      = 1

	// maxPackedDim bounds header-declared dimensions so a hostile
	// artifact cannot demand an absurd allocation before the CRC check.
	maxPackedDim = 1 << 28
)

// WriteTo serialises the packed matrix ending with the CRC32 footer,
// implementing io.WriterTo.
func (p *Packed) WriteTo(w io.Writer) (int64, error) {
	return writePacked(w, packedKindUniform, p.Bits, p.Rows, p.Cols, 0, p.Scale, p.Codes)
}

// WriteTo serialises the packed matrix ending with the CRC32 footer,
// implementing io.WriterTo.
func (p *PackedNF) WriteTo(w io.Writer) (int64, error) {
	return writePacked(w, packedKindNF, p.Bits, p.Rows, p.Cols, p.BlockSize, p.Scale, p.Codes)
}

type countWriter struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
}

func (c *countWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.crc.Write(b[:n])
	c.n += int64(n)
	return n, err
}

func writePacked(w io.Writer, kind, bits, rows, cols, block int, scale []float32, codes []byte) (int64, error) {
	cw := &countWriter{w: w, crc: crc32.NewIEEE()}
	if _, err := cw.Write(packedMagic[:]); err != nil {
		return cw.n, fmt.Errorf("quant: write packed magic: %w", err)
	}
	hdr := []uint32{uint32(kind)<<8 | uint32(bits), uint32(rows), uint32(cols), uint32(block), uint32(len(scale)), uint32(len(codes))}
	if err := binary.Write(cw, binary.LittleEndian, hdr); err != nil {
		return cw.n, fmt.Errorf("quant: write packed header: %w", err)
	}
	if err := binary.Write(cw, binary.LittleEndian, scale); err != nil {
		return cw.n, fmt.Errorf("quant: write packed scales: %w", err)
	}
	if _, err := cw.Write(codes); err != nil {
		return cw.n, fmt.Errorf("quant: write packed codes: %w", err)
	}
	sum := cw.crc.Sum32()
	n := cw.n
	if _, err := w.Write(packedFooter[:]); err != nil {
		return n, fmt.Errorf("quant: write packed footer: %w", err)
	}
	n += 4
	if err := binary.Write(w, binary.LittleEndian, sum); err != nil {
		return n, fmt.Errorf("quant: write packed checksum: %w", err)
	}
	return n + 4, nil
}

type countReader struct {
	r   io.Reader
	crc hash.Hash32
	n   int64
}

func (c *countReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.crc.Write(b[:n])
	c.n += int64(n)
	return n, err
}

// ReadPackedFrom reads one packed artifact written by WriteTo, verifying
// the CRC footer before returning. The result is a *Packed or *PackedNF
// (both tensor.PackedMat). Truncated, bit-flipped, or malformed artifacts
// fail with a diagnostic error — never a panic.
func ReadPackedFrom(r io.Reader) (tensor.PackedMat, int64, error) {
	cr := &countReader{r: r, crc: crc32.NewIEEE()}
	var magic [8]byte
	if _, err := io.ReadFull(cr, magic[:]); err != nil {
		return nil, cr.n, fmt.Errorf("quant: read packed magic: %w", err)
	}
	if magic != packedMagic {
		return nil, cr.n, fmt.Errorf("quant: not an edgellm packed-weight artifact (magic %q)", magic)
	}
	var hdr [6]uint32
	if err := binary.Read(cr, binary.LittleEndian, &hdr); err != nil {
		return nil, cr.n, fmt.Errorf("quant: read packed header: %w", err)
	}
	kind, bits := int(hdr[0]>>8), int(hdr[0]&0xff)
	rows, cols, block := int(hdr[1]), int(hdr[2]), int(hdr[3])
	nScale, nCodes := int(hdr[4]), int(hdr[5])
	if kind != packedKindUniform && kind != packedKindNF {
		return nil, cr.n, fmt.Errorf("quant: unknown packed kind %d", kind)
	}
	if bits < 2 || bits > 8 {
		return nil, cr.n, fmt.Errorf("quant: packed bits %d out of [2,8]", bits)
	}
	if rows < 1 || cols < 1 || rows > maxPackedDim || cols > maxPackedDim || rows*cols > maxPackedDim {
		return nil, cr.n, fmt.Errorf("quant: implausible packed shape (%d,%d)", rows, cols)
	}
	if want := (rows*cols*bits + 7) / 8; nCodes != want {
		return nil, cr.n, fmt.Errorf("quant: packed code bytes %d, want %d for (%d,%d)@%db", nCodes, want, rows, cols, bits)
	}
	var wantScale int
	switch kind {
	case packedKindUniform:
		if block != 0 {
			return nil, cr.n, fmt.Errorf("quant: uniform packed artifact declares block size %d", block)
		}
		wantScale = cols
	case packedKindNF:
		if block < 1 || block > rows*cols {
			return nil, cr.n, fmt.Errorf("quant: packed NF block size %d out of [1,%d]", block, rows*cols)
		}
		wantScale = (rows*cols + block - 1) / block
	}
	if nScale != wantScale {
		return nil, cr.n, fmt.Errorf("quant: packed scale count %d, want %d", nScale, wantScale)
	}
	scale := make([]float32, nScale)
	if err := binary.Read(cr, binary.LittleEndian, scale); err != nil {
		return nil, cr.n, fmt.Errorf("quant: read packed scales: %w", err)
	}
	codes := make([]byte, nCodes)
	if _, err := io.ReadFull(cr, codes); err != nil {
		return nil, cr.n, fmt.Errorf("quant: read packed codes: %w", err)
	}
	want := cr.crc.Sum32()
	var footer [4]byte
	if _, err := io.ReadFull(r, footer[:]); err != nil {
		return nil, cr.n, fmt.Errorf("quant: packed artifact truncated before footer: %w", err)
	}
	if footer != packedFooter {
		return nil, cr.n, fmt.Errorf("quant: bad packed footer %q (truncated or corrupt)", footer)
	}
	var sum uint32
	if err := binary.Read(r, binary.LittleEndian, &sum); err != nil {
		return nil, cr.n, fmt.Errorf("quant: packed artifact truncated inside checksum: %w", err)
	}
	if sum != want {
		return nil, cr.n, fmt.Errorf("quant: packed checksum mismatch (stored %08x, computed %08x): artifact is corrupt", sum, want)
	}
	n := cr.n + 8
	if kind == packedKindNF {
		cb := NFScheme{Bits: bits}.Codebook()
		for i := 0; i < rows*cols; i++ {
			if code := int(readBits(codes, i*bits, bits)); code >= len(cb) {
				return nil, n, fmt.Errorf("quant: packed NF code %d at element %d is outside the %d-entry codebook", code, i, len(cb))
			}
		}
		return &PackedNF{Bits: bits, Rows: rows, Cols: cols, BlockSize: block, Codes: codes, Scale: scale, codebook: cb}, n, nil
	}
	return &Packed{Bits: bits, Rows: rows, Cols: cols, Codes: codes, Scale: scale}, n, nil
}

// ReadFrom deserialises a uniform packed artifact into p, implementing
// io.ReaderFrom. It errors on NF artifacts (use ReadPackedFrom to accept
// either kind).
func (p *Packed) ReadFrom(r io.Reader) (int64, error) {
	m, n, err := ReadPackedFrom(r)
	if err != nil {
		return n, err
	}
	u, ok := m.(*Packed)
	if !ok {
		return n, fmt.Errorf("quant: artifact is NF-packed, not uniform")
	}
	*p = *u
	return n, nil
}

// ReadFrom deserialises an NF packed artifact into p, implementing
// io.ReaderFrom. It errors on uniform artifacts.
func (p *PackedNF) ReadFrom(r io.Reader) (int64, error) {
	m, n, err := ReadPackedFrom(r)
	if err != nil {
		return n, err
	}
	nf, ok := m.(*PackedNF)
	if !ok {
		return n, fmt.Errorf("quant: artifact is uniform-packed, not NF")
	}
	*p = *nf
	return n, nil
}

// WritePackedFile writes a packed artifact atomically (write-temp, fsync,
// rename — the v2 checkpoint convention), so a crashed save never leaves
// a torn artifact in a registry directory.
func WritePackedFile(path string, p io.WriterTo) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("quant: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if _, err = p.WriteTo(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("quant: flush %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("quant: fsync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("quant: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("quant: rename into place: %w", err)
	}
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadPackedFile reads one packed artifact from a file path.
func ReadPackedFile(path string) (tensor.PackedMat, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, _, err := ReadPackedFrom(bufio.NewReader(f))
	return m, err
}
