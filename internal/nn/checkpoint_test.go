package nn

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgellm/internal/artifact"
	"edgellm/internal/fault"
	"edgellm/internal/tensor"
)

func TestCheckpointRoundtrip(t *testing.T) {
	orig := tinyModel(60)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Cfg != orig.Cfg {
		t.Fatalf("config mismatch: %+v vs %+v", back.Cfg, orig.Cfg)
	}
	op, bp := orig.Params(), back.Params()
	if len(op) != len(bp) {
		t.Fatal("param count mismatch")
	}
	for i := range op {
		if op[i].Name != bp[i].Name {
			t.Fatalf("param %d name %q vs %q", i, op[i].Name, bp[i].Name)
		}
		if !tensor.AllClose(op[i].Value.Data, bp[i].Value.Data, 0, 0) {
			t.Fatalf("param %s differs after roundtrip", op[i].Name)
		}
	}
	// The loaded model must compute identical logits.
	a := orig.Logits(batch2x4())
	b := back.Logits(batch2x4())
	if !tensor.AllClose(a.Data, b.Data, 0, 0) {
		t.Fatal("loaded model computes different logits")
	}
}

func TestCheckpointTiedExits(t *testing.T) {
	cfg := tinyConfig()
	cfg.TieExitHeads = true
	orig := NewModel(cfg, tensor.NewRNG(61))
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Exits[0].Proj != back.LMHead {
		t.Fatal("tied exits must stay tied after load")
	}
}

func TestCheckpointFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	orig := tinyModel(62)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	a := orig.Logits(batch2x4())
	b := back.Logits(batch2x4())
	if !tensor.AllClose(a.Data, b.Data, 0, 0) {
		t.Fatal("file roundtrip changed the model")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("definitely not a checkpoint file at all"))); err == nil {
		t.Fatal("garbage must be rejected")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/model.ckpt"); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadChecksumErrorIsDiagnostic: payload corruption that leaves the
// structure parseable must be reported as a checksum mismatch, pointing
// the operator at file damage rather than a code bug.
func TestLoadChecksumErrorIsDiagnostic(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(67).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip a low-order mantissa bit deep in the tensor payload: every
	// framing field still parses, so only the checksum can catch it.
	fault.FlipBit(full, 8*(len(full)-64))
	_, err := Load(bytes.NewReader(full))
	if err == nil {
		t.Fatal("payload corruption loaded successfully")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %q does not mention the checksum", err)
	}
}

// TestSaveFileAtomicPreservesOldCheckpoint: a failed save must leave the
// previous checkpoint intact (the whole point of write-temp-fsync-rename).
func TestSaveFileAtomicPreservesOldCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	orig := tinyModel(68)
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// A save into a read-only directory fails after the temp create; the
	// existing checkpoint must be untouched and no temp litter left behind.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	if err := tinyModel(69).SaveFile(path); err == nil {
		t.Skip("filesystem permits writes in read-only dir (running as root?)")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed save corrupted the existing checkpoint")
	}
}

// TestLoadLyingHeaderAllocatesLittle: a checkpoint whose header declares a
// 2^16 × 2^8 vocabulary — 64 MiB for each embedding table — over the
// tensors of a tiny model, under a valid checksum, is an error
// that costs about what the file holds, not the model it declares.
func TestLoadLyingHeaderAllocatesLittle(t *testing.T) {
	m := tinyModel(70)
	hdr := checkpointHeader{Config: m.Cfg}
	hdr.Config.Vocab, hdr.Config.Dim = 1<<16, 1<<8
	var buf bytes.Buffer
	aw := artifact.NewWriter(&buf, checkpointMagic)
	for _, p := range m.Params() {
		hdr.Names = append(hdr.Names, p.Name)
	}
	if err := aw.Header(hdr); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Params() {
		if _, err := p.Value.Data.WriteTo(aw); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	var err error
	cost := fault.Allocated(func() { _, err = Load(bytes.NewReader(buf.Bytes())) })
	if err == nil || !strings.Contains(err.Error(), "its config declares") {
		t.Fatalf("error %v, want the parameter count mismatch", err)
	}
	if cost >= 4<<20 {
		t.Fatalf("a %d-byte checkpoint made Load allocate %d bytes, want < 4 MiB", buf.Len(), cost)
	}
}

// TestParamElemsMatchesBuiltModel pins Load's parameter count to the models
// NewModel builds: without exits, with untied and with tied exit heads.
func TestParamElemsMatchesBuiltModel(t *testing.T) {
	for _, exits := range []struct{ on, tied bool }{{false, false}, {true, false}, {true, true}} {
		cfg := Config{Vocab: 13, Dim: 8, Heads: 2, Layers: 3, Hidden: 12, MaxSeq: 5, ExitHeads: exits.on, TieExitHeads: exits.tied}
		if got, want := paramElems(cfg), float64(NumParams(NewModel(cfg, tensor.NewRNG(1)))); got != want {
			t.Errorf("%+v: paramElems = %.0f, built model has %.0f", cfg, got, want)
		}
	}
}

// FuzzLoad feeds the checkpoint loader outside bytes: it must return an
// error or a model that survives a forward, never panic. Each input is also
// tried resealed (its body under a fresh footer) to get mutations past the
// checksum. Load builds a model only once the file has held its every
// parameter, so no header can make it allocate more than the input's size.
func FuzzLoad(f *testing.F) {
	// Small seeds: the engine minimises every interesting input, and a Load
	// builds a model.
	cfg := Config{Vocab: 5, Dim: 4, Heads: 2, Layers: 1, Hidden: 4, MaxSeq: 2, ExitHeads: true}
	tied := cfg
	tied.TieExitHeads = true
	for _, m := range []*Model{NewModel(cfg, tensor.NewRNG(80)), NewModel(tied, tensor.NewRNG(81))} {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		v2 := buf.Bytes()
		f.Add(v2)
		f.Add(append([]byte("ELLMCKP1"), v2[8:len(v2)-8]...))
	}
	load := func(data []byte) {
		m, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		m.Logits([][]int{[]int{0, m.Cfg.Vocab - 1}[:min(2, m.Cfg.MaxSeq)]})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		load(data)
		load(fault.Reseal(data))
	})
}
