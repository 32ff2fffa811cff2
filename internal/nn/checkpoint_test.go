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

func TestLoadRejectsTruncated(t *testing.T) {
	orig := tinyModel(63)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	truncated := buf.Bytes()[:buf.Len()/2]
	if _, err := Load(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated checkpoint must be rejected")
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/model.ckpt"); err == nil {
		t.Fatal("missing file must error")
	}
}

// TestLoadRejectsEveryTruncation cuts the checkpoint at a sweep of prefix
// lengths; every cut must fail with an error, never panic or load.
func TestLoadRejectsEveryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(64).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	cuts := []int{0, 1, 7, 8, 9, 11, 12, len(full) - 1, len(full) - 4, len(full) - 8, len(full) - 9}
	for c := 13; c < len(full); c += 31 {
		cuts = append(cuts, c)
	}
	for _, c := range cuts {
		if _, err := Load(bytes.NewReader(full[:c])); err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", c, len(full))
		}
	}
}

// TestLoadRejectsBitFlips flips single bits across the whole container —
// densely through the magic, header length, and header; strided through
// the tensor payload; densely through the footer — and requires every flip
// to surface as a load error (the acceptance criterion: a checkpoint with
// any flipped bit must never load).
func TestLoadRejectsBitFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(65).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	var bits []int
	// Magic, header length, and the start of the JSON header.
	for b := 0; b < 8*96 && b < 8*len(full); b++ {
		bits = append(bits, b)
	}
	// Strided sweep over the rest of the body.
	stride := 101
	if testing.Short() {
		stride = 1009
	}
	for b := 8 * 96; b < 8*(len(full)-8); b += stride {
		bits = append(bits, b)
	}
	// Entire footer (marker + checksum).
	for b := 8 * (len(full) - 8); b < 8*len(full); b++ {
		bits = append(bits, b)
	}
	for _, bit := range bits {
		corrupt := append([]byte(nil), full...)
		fault.FlipBit(corrupt, bit)
		m, err := Load(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("bit flip at bit %d (byte %d) loaded successfully", bit, bit/8)
		}
		if m != nil {
			t.Fatalf("bit flip at bit %d returned a model alongside the error", bit)
		}
	}
}

// TestLoadRejectsSeededRandomFlips complements the strided sweep with
// seeded uniform flips, so payload bytes the stride skips still get
// coverage across runs of the suite.
func TestLoadRejectsSeededRandomFlips(t *testing.T) {
	var buf bytes.Buffer
	if err := tinyModel(66).Save(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	c := fault.NewCorrupter(42)
	for i := 0; i < 200; i++ {
		corrupt := append([]byte(nil), full...)
		bit := c.FlipRandomBit(corrupt)
		if _, err := Load(bytes.NewReader(corrupt)); err == nil {
			t.Fatalf("random flip %d (bit %d) loaded successfully", i, bit)
		}
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

// FuzzLoad feeds the checkpoint loader outside bytes: it must return an
// error or a model that survives a forward, never panic. Each input is also
// tried resealed (its body under a fresh footer) to get mutations past the
// checksum. Load builds the architecture its header declares before it reads
// a tensor (ROADMAP item 4), so a header declaring a model far larger than
// the seeds' is skipped, not loaded.
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
		if ar, err := artifact.NewReader(bytes.NewReader(data), checkpointMagicV2, checkpointMagicV1); err == nil {
			var hdr checkpointHeader
			c := &hdr.Config
			if ar.Header(&hdr) == nil && max(c.Vocab, c.Dim, c.Hidden, c.MaxSeq, c.Layers) > 64 {
				return
			}
		}
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
