package artifact_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/train"
)

// kinds is every artifact format built on the container: a seeded small
// instance (fixtures_test.go), its loader, and the sha256 of the instance's
// bytes as the commit before this package existed wrote them. A file on a
// user's disk must keep loading, so a change to any of these hashes is a
// format change, not a refactor.
var kinds = []struct {
	name   string
	build  func(testing.TB) []byte
	load   func(t *testing.T, data []byte) error
	sha256 string
}{
	{"checkpoint", checkpointBytes, func(_ *testing.T, data []byte) error {
		_, err := nn.Load(bytes.NewReader(data))
		return err
	}, "9d549847dc601bf18670a55e3a90d659bb36797b1ae08e0b99ffe2cec4e6bbc9"},
	{"adapter", adapterBytes, func(_ *testing.T, data []byte) error {
		_, err := nn.LoadAdapter(bytes.NewReader(data))
		return err
	}, "985de7271e654618c04ce266b67a411598246872e5c49194cb3a8a064a558203"},
	{"snapshot", snapshotBytes, loadSnapshot, "9691b979ffa736f9a691ec63481436d354d9a5a48b21068f2adcb5ab589cd0c6"},
	{"packed-uniform4", uniform4Bytes, loadPacked, "52c3ff5dfec5c9c7f6ba34d51102d6bd7ef6e564b81da556eb99a8803830ba4a"},
	{"packed-nf4", nf4Bytes, loadPacked, "a44c82bb23733fd8f5807f9eacadf2c78ff180539daceb3f0b099b107bce08d5"},
}

// loadSnapshot also holds ReadSnapshot to its trust rule: a load that fails
// has installed nothing into the trainer it was given.
func loadSnapshot(t *testing.T, data []byte) error {
	tr := fixtureTrainer()
	_, err := train.ReadSnapshot(bytes.NewReader(data), tr, train.LoopConfig{})
	if _, slots := tr.Opt.ExportState(); err != nil && (tr.StepCount() != 0 || len(slots) != 0) {
		t.Fatalf("failed snapshot load (%v) left step %d and %d optimizer slots in the trainer", err, tr.StepCount(), len(slots))
	}
	return err
}

func loadPacked(_ *testing.T, data []byte) error {
	_, err := quant.ReadPackedFrom(bytes.NewReader(data))
	return err
}

func TestGoldenBytes(t *testing.T) {
	for _, k := range kinds {
		sum := sha256.Sum256(k.build(t))
		if got := hex.EncodeToString(sum[:]); got != k.sha256 {
			t.Errorf("%s: sha256 %s, pinned %s: the bytes on disk changed", k.name, got, k.sha256)
		}
	}
}

// TestEveryFlipAndTruncationIsALoadError: for each kind the pristine bytes
// load, and every single-bit flip and every proper prefix is an error —
// never a success, never a panic.
func TestEveryFlipAndTruncationIsALoadError(t *testing.T) {
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			good := k.build(t)
			if err := k.load(t, good); err != nil {
				t.Fatalf("pristine artifact rejected: %v", err)
			}
			bad := make([]byte, len(good))
			for bit := 0; bit < 8*len(good); bit++ {
				copy(bad, good)
				fault.FlipBit(bad, bit)
				if err := k.load(t, bad); err == nil {
					t.Fatalf("bit %d (byte %d of %d) flipped and it loaded", bit, bit/8, len(good))
				}
			}
			for cut := 0; cut < len(good); cut++ {
				if err := k.load(t, good[:cut]); err == nil {
					t.Fatalf("first %d of %d bytes loaded", cut, len(good))
				}
			}
		})
	}
}

// TestV1CheckpointStillLoads: the pre-footer format — same body under the
// "ELLMCKP1" magic, nothing after it — loads to the same model.
func TestV1CheckpointStillLoads(t *testing.T) {
	v2 := checkpointBytes(t)
	v1 := append([]byte("ELLMCKP1"), v2[8:len(v2)-8]...)
	m, err := nn.Load(bytes.NewReader(v1))
	if err != nil {
		t.Fatalf("v1 checkpoint rejected: %v", err)
	}
	if !bytes.Equal(saved(t, m.Save), v2) {
		t.Fatal("v1 checkpoint loaded to a different model than its v2 twin")
	}
}

// TestWriteFileCleansUpOnFailure: a write that fails part-way (a
// checkpoint save through fault.FailNthWriter) surfaces as the error, leaves
// what was at the destination exactly as it was, and leaves no temp file.
func TestWriteFileCleansUpOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	m := fixtureModel()
	failing := func(w io.Writer) error { return m.Save(&fault.FailNthWriter{W: w, N: 3}) }

	if err := artifact.WriteFile(path, failing); err == nil {
		t.Fatal("injected write failure must surface")
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Fatalf("failed write left files behind: %v", entries)
	}

	if err := artifact.WriteFile(path, m.Save); err != nil {
		t.Fatal(err)
	}
	if err := artifact.WriteFile(path, failing); err == nil {
		t.Fatal("injected write failure must surface")
	}
	got, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(got, checkpointBytes(t)) {
		t.Fatalf("failed overwrite damaged the old file (read error %v)", err)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 {
		t.Fatalf("failed overwrite left temp files behind: %v", entries)
	}
}

func TestReadFileMissingIsNotExist(t *testing.T) {
	_, err := artifact.ReadFile(filepath.Join(t.TempDir(), "absent"), nn.Load)
	if !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: %v, want os.ErrNotExist", err)
	}
}

// TestReadN: what is there is read exactly, across chunk boundaries; a
// length that lies about what is there costs about a chunk, not the length.
func TestReadN(t *testing.T) {
	const mib = 1 << 20
	data := make([]byte, 2*mib+mib/2+3)
	for i := range data {
		data[i] = byte(i * 31 >> 3)
	}
	for _, n := range []int{0, 1, mib - 1, mib, mib + 1, len(data)} {
		got, err := artifact.ReadN(bytes.NewReader(data), n)
		if err != nil || !bytes.Equal(got, data[:n]) {
			t.Fatalf("ReadN(%d): err %v, %d bytes, equal %v", n, err, len(got), bytes.Equal(got, data[:n]))
		}
	}
	for _, present := range []int{0, 64 << 10, len(data)} {
		var err error
		cost := fault.Allocated(func() { _, err = artifact.ReadN(bytes.NewReader(data[:present]), 1<<30) })
		if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("%d bytes present of a declared GiB: error %v", present, err)
		}
		if limit := uint64(4*present + 2*mib); cost > limit {
			t.Errorf("%d bytes present of a declared GiB: allocated %d, want ≤ %d", present, cost, limit)
		}
	}
}

// TestWriterErrorSticks: after the underlying writer fails, the Writer
// writes nothing more and Close reports the failure.
func TestWriterErrorSticks(t *testing.T) {
	var sink bytes.Buffer
	w := artifact.NewWriter(&fault.FailNthWriter{W: &sink, N: 2}, artifact.Magic{'T', 'E', 'S', 'T'})
	w.Write([]byte("fails"))
	at := sink.Len()
	w.Write([]byte("dropped"))
	if err := w.Close(); err == nil || sink.Len() != at {
		t.Fatalf("Close after a failed write: err %v, %d bytes written past the failure", err, sink.Len()-at)
	}
	if w.Size() != int64(sink.Len()) {
		t.Fatalf("Size %d, sink holds %d", w.Size(), sink.Len())
	}
}

func ExampleWriter() {
	var buf bytes.Buffer
	w := artifact.NewWriter(&buf, artifact.Magic{'E', 'X', 'A', 'M', 'P', 'L', 'E', '1'})
	w.Header(map[string]int{"n": 3})
	w.Write([]byte{1, 2, 3})
	if err := w.Close(); err != nil {
		panic(err)
	}

	r, err := artifact.NewReader(&buf, artifact.Magic{'E', 'X', 'A', 'M', 'P', 'L', 'E', '1'})
	if err != nil {
		panic(err)
	}
	var hdr struct{ N int }
	if err := r.Header(&hdr); err != nil {
		panic(err)
	}
	body, err := artifact.ReadN(r, hdr.N)
	if err != nil {
		panic(err)
	}
	fmt.Println(body, r.Verify())
	// Output: [1 2 3] <nil>
}
