package quant

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/tensor"
)

func randWeights(rows, cols int, seed int64) *tensor.Tensor {
	return tensor.NewRNG(seed).Normal(0, 0.5, rows, cols)
}

// refReadBits is the original bit-by-bit extractor, kept as the oracle
// for the word-wise rewrite.
func refReadBits(buf []byte, pos, width int) byte {
	var code byte
	for i := 0; i < width; i++ {
		if buf[(pos+i)/8]&(1<<((pos+i)%8)) != 0 {
			code |= 1 << i
		}
	}
	return code
}

func TestWordWiseBitsMatchBitLoop(t *testing.T) {
	for width := 2; width <= 8; width++ {
		n := 101 // odd element count: the tail straddles arbitrarily
		buf := make([]byte, (n*width+7)/8)
		g := tensor.NewRNG(int64(width))
		codes := make([]byte, n)
		for i := range codes {
			codes[i] = byte(g.Intn(1 << width))
			writeBits(buf, i*width, width, codes[i])
		}
		for i, want := range codes {
			if got := readBits(buf, i*width, width); got != want {
				t.Fatalf("width %d element %d: readBits %x, want %x", width, i, got, want)
			}
			if got := refReadBits(buf, i*width, width); got != want {
				t.Fatalf("width %d element %d: writeBits wrote %x per bit-loop oracle, want %x", width, i, got, want)
			}
		}
	}
}

// refDecode is the decode oracle, independent of every production decode
// path: the bit-loop extractor, then each kind's defining expression.
func refDecode(p *Packed, r, c int) float32 {
	flat := r*p.Cols + c
	code := refReadBits(p.Codes, flat*p.Bits, p.Bits)
	if p.levels != nil {
		return p.levels[code] * p.Scale[flat/p.BlockSize]
	}
	q := int32(code)
	if q >= 1<<(p.Bits-1) {
		q -= 1 << p.Bits
	}
	return float32(q) * p.Scale[c]
}

// TestDecodeRowsIntoMatchesUnpack pins the tile decoder, and Unpack with
// it, against the bit-loop oracle, bitwise, for every width. The 53-wide
// matrix has no word-aligned tile (odd column offsets hit the generic
// straddles); the 56-wide one takes the word path on whole-block tiles —
// one block, several, the last (whose final rows load a short word) — and
// the per-element path on tiles cut inside a block.
func TestDecodeRowsIntoMatchesUnpack(t *testing.T) {
	for _, cols := range []int{53, 56} {
		w := randWeights(37, cols, 7)
		variants := map[string]*Packed{}
		for bits := 2; bits <= 8; bits++ {
			variants[fmt.Sprintf("uniform%d", bits)] = Pack(w, bits)
		}
		variants["nf4"] = PackNF(w, NFScheme{Bits: 4, BlockSize: 16})
		variants["nf3-b40"] = PackNF(w, NFScheme{Bits: 3, BlockSize: 40}) // carries a remainder row to row
		variants["nf4-b12"] = PackNF(w, NFScheme{Bits: 4, BlockSize: 12}) // a block row straddles two scales
		variants["nf2-whole"] = PackNF(w, NFScheme{Bits: 2})
		tiles := [][4]int{
			{0, 37, 0, cols}, // full matrix
			{0, 1, 0, 1},
			{3, 19, 5, 24}, // odd offsets both ways
			{36, 37, cols - 1, cols},
			{10, 11, 1, cols}, // single row, odd start
			{0, 37, 8, 16},    // one column block, full height: the kernels' tile
			{5, 30, 16, 48},   // several blocks
			{0, 37, 48, 56},   // the last block of the 56-wide matrix
			{0, 37, 8, 20},    // starts on a block, ends inside one
		}
		for name, p := range variants {
			full := p.Unpack()
			for i, got := range full.Data {
				if want := refDecode(p, i/cols, i%cols); math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("%s cols %d Unpack at (%d,%d): %v != %v", name, cols, i/cols, i%cols, got, want)
				}
			}
			for _, tile := range tiles {
				rl, rh, cl, ch := tile[0], tile[1], tile[2], min(tile[3], cols)
				dst := make([]float32, (rh-rl)*(ch-cl))
				for i := range dst {
					dst[i] = float32(math.NaN()) // decode must overwrite every slot
				}
				p.DecodeRowsInto(dst, rl, rh, cl, ch)
				for r := rl; r < rh; r++ {
					for c := cl; c < ch; c++ {
						got := dst[(r-rl)*(ch-cl)+(c-cl)]
						want := refDecode(p, r, c)
						if math.Float32bits(got) != math.Float32bits(want) {
							t.Fatalf("%s cols %d tile %v at (%d,%d): %v != %v", name, cols, tile, r, c, got, want)
						}
					}
				}
			}
		}
	}
}

// TestPackDenormalColumn pins the scale-underflow guard: a column whose
// absmax is a denormal can see its float32 scale underflow to 0 when
// divided by qmax (bits ≥ 3). Codes must then come out zero — never a
// division by the zero scale — and every decode stays bounded by the
// column's absmax. A zero column always decodes to exactly 0.
func TestPackDenormalColumn(t *testing.T) {
	denorm := math.Float32frombits(1) // smallest positive denormal
	w := tensor.New(4, 3)
	for r := 0; r < 4; r++ {
		w.Set(r, 0, float32(r)-1.5)
		w.Set(r, 1, denorm)
		w.Set(r, 2, 0)
	}
	for bits := 2; bits <= 8; bits++ {
		p := Pack(w, bits)
		u := p.Unpack()
		for r := 0; r < 4; r++ {
			if v := u.At(r, 1); math.IsNaN(float64(v)) || v < 0 || v > denorm {
				t.Fatalf("bits %d: denormal column row %d decodes to %v, want within [0,%v]", bits, r, v, denorm)
			}
			if v := u.At(r, 2); v != 0 {
				t.Fatalf("bits %d: zero column row %d decodes to %v, want 0", bits, r, v)
			}
		}
		if u.At(0, 0) >= 0 || u.At(3, 0) <= 0 {
			t.Fatalf("bits %d: healthy column lost its signs: %v, %v", bits, u.At(0, 0), u.At(3, 0))
		}
	}
}

// TestPackedNFMatchesFakeQuant pins the NF packed path against the
// fake-quant reference value-wise (not bitwise: an all-zero block keeps
// FakeQuant's original ±0 signs but decodes to +0).
func TestPackedNFMatchesFakeQuant(t *testing.T) {
	w := randWeights(24, 33, 11)
	// One all-zero block to hit the zero-scale path.
	for i := 0; i < 16; i++ {
		w.Data[i] = 0
	}
	for _, s := range []NFScheme{{Bits: 4, BlockSize: 16}, {Bits: 3, BlockSize: 64}, {Bits: 2}} {
		want := s.FakeQuant(w)
		got := PackNF(w, s).Unpack()
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%v element %d: packed %v, fake-quant %v", s, i, got.Data[i], want.Data[i])
			}
		}
	}
}

func TestPackedStorageBytesAnalytic(t *testing.T) {
	for _, sh := range [][2]int{{64, 32}, {37, 53}, {1, 1}} {
		w := randWeights(sh[0], sh[1], 3)
		for bits := 2; bits <= 8; bits++ {
			p := Pack(w, bits)
			if got, want := p.StorageBytes(), PackedStorageBytes(sh[0], sh[1], bits); got != want {
				t.Fatalf("(%d,%d)@%db: StorageBytes %d, analytic %d", sh[0], sh[1], bits, got, want)
			}
		}
	}
}

func TestPackedSerializationRoundTrip(t *testing.T) {
	w := randWeights(19, 31, 5)
	uni := Pack(w, 3)
	nf := PackNF(w, NFScheme{Bits: 4, BlockSize: 16})

	for name, p := range map[string]*Packed{"uniform": uni, "nf": nf} {
		var buf bytes.Buffer
		wrote, err := p.WriteTo(&buf)
		if err != nil {
			t.Fatalf("%s: WriteTo: %v", name, err)
		}
		if wrote != int64(buf.Len()) {
			t.Fatalf("%s: WriteTo reported %d bytes, wrote %d", name, wrote, buf.Len())
		}
		m, err := ReadPackedFrom(&buf)
		if err != nil {
			t.Fatalf("%s: ReadPackedFrom: %v", name, err)
		}
		if buf.Len() != 0 {
			t.Fatalf("%s: ReadPackedFrom left %d of %d bytes unread", name, buf.Len(), wrote)
		}
		gotT := m.Unpack()
		wantT := p.Unpack()
		for i := range wantT.Data {
			if math.Float32bits(gotT.Data[i]) != math.Float32bits(wantT.Data[i]) {
				t.Fatalf("%s: element %d differs after round trip", name, i)
			}
		}
	}
}

func TestPackedSerializationRejectsCorruption(t *testing.T) {
	w := randWeights(9, 17, 6)
	var buf bytes.Buffer
	if _, err := Pack(w, 5).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	art := buf.Bytes()

	// Every single-byte flip and every truncation must fail loudly.
	for i := 0; i < len(art); i++ {
		bad := append([]byte(nil), art...)
		bad[i] ^= 0x40
		if _, err := ReadPackedFrom(bytes.NewReader(bad)); err == nil {
			t.Fatalf("bit flip at byte %d loaded cleanly", i)
		}
	}
	for cut := 0; cut < len(art); cut += 7 {
		if _, err := ReadPackedFrom(bytes.NewReader(art[:cut])); err == nil {
			t.Fatalf("truncation at %d loaded cleanly", cut)
		}
	}
}

// TestReadPackedLyingHeaderAllocatesLittle: a header whose counts agree with
// its shape — (2^14, 2^14) at 8 bits, so 2^28 code bytes — over a file that
// holds the 64 KiB of scales and nothing else is an error that costs about
// one read chunk, not the 256 MiB it declares.
func TestReadPackedLyingHeaderAllocatesLittle(t *testing.T) {
	const dim = 1 << 14
	art := []byte("ELLMPKD1")
	for _, v := range []uint32{packedKindUniform<<8 | 8, dim, dim, 0, dim, dim * dim} {
		art = binary.LittleEndian.AppendUint32(art, v)
	}
	art = append(art, make([]byte, 4*dim)...)
	var err error
	cost := fault.Allocated(func() { _, err = ReadPackedFrom(bytes.NewReader(art)) })
	if err == nil || !strings.Contains(err.Error(), "codes") {
		t.Fatalf("error %v, want the code read to fail", err)
	}
	if cost >= 4<<20 {
		t.Fatalf("a %d-byte input made ReadPackedFrom allocate %d bytes, want < 4 MiB", len(art), cost)
	}
}

// TestReadPackedShapeProductOverflow: rows·cols = 2^32 is 0 in a 32-bit int,
// which would pass the shape bound; the header arithmetic is int64, so it is
// an implausible shape on every GOARCH.
func TestReadPackedShapeProductOverflow(t *testing.T) {
	art := []byte("ELLMPKD1")
	for _, v := range []uint32{packedKindUniform<<8 | 8, 1 << 16, 1 << 16, 0, 1 << 16, 0} {
		art = binary.LittleEndian.AppendUint32(art, v)
	}
	if _, err := ReadPackedFrom(bytes.NewReader(art)); err == nil || !strings.Contains(err.Error(), "implausible packed shape") {
		t.Fatalf("ReadPackedFrom of a (2^16, 2^16) header: %v, want an implausible-shape error", err)
	}
}

func TestWritePackedFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.packed")
	p := Pack(randWeights(8, 8, 1), 4)
	if err := WritePackedFile(path, p); err != nil {
		t.Fatal(err)
	}
	m, err := artifact.ReadFile(path, ReadPackedFrom)
	if err != nil {
		t.Fatal(err)
	}
	if r, c := m.Dims(); r != 8 || c != 8 {
		t.Fatalf("read dims (%d,%d)", r, c)
	}
	// No temp litter after a successful write.
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Fatalf("registry dir has %d entries, want 1", len(ents))
	}
}

// TestReadPackedNFIsReadyToDecode: a deserialized NF artifact carries its
// codebook, so the packed kernel's column-band workers, which decode tiles of
// one matrix concurrently, only read it (run under -race: filling the
// codebook on first decode was a write they raced on).
func TestReadPackedNFIsReadyToDecode(t *testing.T) {
	w := randWeights(256, 256, 8)
	var buf bytes.Buffer
	if _, err := PackNF(w, NFScheme{Bits: 4, BlockSize: 64}).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	nf, err := ReadPackedFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if nf.levels == nil {
		t.Fatal("loaded NF artifact has no codebook until its first decode")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.NumCPU())))
	a := randWeights(32, 256, 9) // 32·256·256 MACs: the kernel fans out
	got, want := tensor.New(32, 256), tensor.New(32, 256)
	tensor.MatMulPackedInto(got, a, nf, nil)
	tensor.MatMulInto(want, a, nf.Unpack())
	for i := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("element %d: %v through the loaded artifact, %v through its Unpack", i, got.Data[i], want.Data[i])
		}
	}
}

// TestReadPackedRejectsCodeOutsideCodebook: the symmetric NF codebook has
// 2^bits − 1 entries, so a CRC-valid artifact holding the all-ones code must
// fail at load, not index past the codebook on first decode.
func TestReadPackedRejectsCodeOutsideCodebook(t *testing.T) {
	p := PackNF(randWeights(8, 8, 10), NFScheme{Bits: 4, BlockSize: 16})
	writeBits(p.Codes, 21*p.Bits, p.Bits, 1<<p.Bits-1)
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadPackedFrom(&buf); err == nil || !strings.Contains(err.Error(), "codebook") {
		t.Fatalf("artifact with code 15 of a 15-entry codebook: error %v, want a codebook rejection", err)
	}
}
