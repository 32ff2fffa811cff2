// Package artifact is the one implementation of the container every edgellm
// file is written in — model checkpoints and adapters (DESIGN.md,
// "Artifacts"):
//
//	magic [8] | body | "ELCF" | uint32 CRC32-IEEE over magic and body
//
// It owns how a file is framed and trusted: the checksum that turns any
// truncation or bit flip into a load error, the bound on what a length read
// from outside may allocate (ReadN), and the temp-file/fsync/rename write
// that leaves the old file or the new one, never a torn mix. A loader
// installs nothing it read until Verify has passed.
package artifact

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
)

const (
	footer = "ELCF"
	// maxHeader bounds the JSON header of any artifact.
	maxHeader = 1 << 20
	// chunk is the most ReadN allocates ahead of the bytes it has seen.
	chunk = 1 << 20
)

// Magic is the first eight bytes of an artifact; it names the kind.
type Magic [8]byte

// Writer frames one artifact onto an io.Writer. The first write error
// sticks: later writes do nothing and Close returns it.
type Writer struct {
	w   io.Writer
	crc hash.Hash32
	n   int64
	err error
}

// NewWriter starts an artifact of the given kind on w.
func NewWriter(w io.Writer, magic Magic) *Writer {
	aw := &Writer{w: w, crc: crc32.NewIEEE()}
	aw.Write(magic[:])
	return aw
}

// Write appends p to the body.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	w.crc.Write(p[:n])
	w.n += int64(n)
	w.err = err
	return n, err
}

// Header appends v as a uint32 length and that many bytes of JSON.
func (w *Writer) Header(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("artifact: marshal header: %w", err)
	}
	w.Write(binary.LittleEndian.AppendUint32(nil, uint32(len(b))))
	_, err = w.Write(b)
	return err
}

// Close appends the footer: the marker and the checksum of every byte
// written so far.
func (w *Writer) Close() error {
	sum := w.crc.Sum32()
	_, err := w.Write(binary.LittleEndian.AppendUint32([]byte(footer), sum))
	return err
}

// Size is the number of bytes written to the underlying writer so far.
func (w *Writer) Size() int64 { return w.n }

// Reader reads one artifact, folding every body byte into the checksum that
// Verify compares with the footer.
type Reader struct {
	r     io.Reader
	crc   hash.Hash32
	magic Magic
}

// NewReader reads the magic from r and fails unless it is one of accept. r
// must not read ahead of what is asked of it when the artifact is followed
// by other data (a bufio.Reader around the whole stream is fine).
func NewReader(r io.Reader, accept ...Magic) (*Reader, error) {
	ar := &Reader{r: r, crc: crc32.NewIEEE()}
	if _, err := io.ReadFull(ar, ar.magic[:]); err != nil {
		return nil, fmt.Errorf("artifact: read magic: %w", err)
	}
	if !slices.Contains(accept, ar.magic) {
		return nil, fmt.Errorf("artifact: magic %q, want one of %q", ar.magic, accept)
	}
	return ar, nil
}

// Magic is the magic NewReader found.
func (r *Reader) Magic() Magic { return r.magic }

// Read reads body bytes.
func (r *Reader) Read(p []byte) (int, error) {
	n, err := r.r.Read(p)
	r.crc.Write(p[:n])
	return n, err
}

// Header reads a header written by Writer.Header into v.
func (r *Reader) Header(v any) error {
	var n [4]byte
	if _, err := io.ReadFull(r, n[:]); err != nil {
		return fmt.Errorf("artifact: read header length: %w", err)
	}
	size := binary.LittleEndian.Uint32(n[:])
	if size > maxHeader {
		return fmt.Errorf("artifact: implausible header length %d", size)
	}
	b, err := ReadN(r, int(size))
	if err != nil {
		return fmt.Errorf("artifact: read header: %w", err)
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("artifact: parse header: %w", err)
	}
	return nil
}

// Verify reads the footer and compares its checksum with the bytes read. It
// is called once, after the whole body has been read.
func (r *Reader) Verify() error {
	want := r.crc.Sum32()
	var foot [8]byte
	if _, err := io.ReadFull(r.r, foot[:]); err != nil {
		return fmt.Errorf("artifact: truncated inside footer: %w", err)
	}
	if string(foot[:4]) != footer {
		return fmt.Errorf("artifact: bad footer %q (truncated or corrupt)", foot[:4])
	}
	if sum := binary.LittleEndian.Uint32(foot[4:]); sum != want {
		return fmt.Errorf("artifact: checksum mismatch (stored %08x, computed %08x): file is corrupt", sum, want)
	}
	return nil
}

// ReadN reads exactly n bytes whose count came from outside the program. The
// buffer doubles as bytes arrive and never runs more than one chunk ahead of
// them, so a length that lies costs a small multiple of the input actually
// present, not n.
func ReadN(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		m := min(n-len(buf), chunk)
		if cap(buf)-len(buf) < m {
			buf = append(make([]byte, 0, min(n, 2*cap(buf))), buf...)
		}
		k, err := io.ReadFull(r, buf[len(buf):len(buf)+m])
		buf = buf[:len(buf)+k]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// WriteFile writes what write produces to path crash-safely: the bytes go to
// a temp file in the same directory, are flushed and fsynced, and only then
// renamed over path. A crash or failure at any point leaves the old file or
// no file, and no temp file.
func WriteFile(path string, write func(io.Writer) error) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("artifact: create temp file: %w", err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	bw := bufio.NewWriter(tmp)
	if err = write(bw); err != nil {
		return err
	}
	if err = bw.Flush(); err != nil {
		return fmt.Errorf("artifact: flush %s: %w", tmp.Name(), err)
	}
	if err = tmp.Sync(); err != nil {
		return fmt.Errorf("artifact: fsync %s: %w", tmp.Name(), err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("artifact: close %s: %w", tmp.Name(), err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("artifact: rename into place: %w", err)
	}
	// Persist the rename itself; best-effort (some filesystems refuse
	// directory fsync).
	if d, derr := os.Open(dir); derr == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// ReadFile opens path and returns what read makes of a buffered reader over
// it. The open error is returned as os.Open gives it, so
// errors.Is(err, os.ErrNotExist) tells a missing file from a bad one.
func ReadFile[T any](path string, read func(io.Reader) (T, error)) (v T, err error) {
	f, err := os.Open(path)
	if err != nil {
		return v, err
	}
	defer f.Close()
	return read(bufio.NewReader(f))
}
