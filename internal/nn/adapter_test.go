package nn

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edgellm/internal/fault"
	"edgellm/internal/tensor"
)

func adapterTestModel(seed int64) *Model {
	cfg := Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24}
	return NewModel(cfg, tensor.NewRNG(seed))
}

func buildAdapter(t testing.TB, name string, seed int64, cfg Config) *Adapter {
	t.Helper()
	g := tensor.NewRNG(seed)
	a, err := NewAdapter(name, 8, []AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, cfg.Dim, 3), B: g.Normal(0, 0.1, 3, cfg.Dim)},
		{Target: "block1.gate", A: g.Normal(0, 0.1, cfg.Dim, 3), B: g.Normal(0, 0.1, 3, cfg.Hidden)},
		{Target: "lmhead", A: g.Normal(0, 0.1, cfg.Dim, 3), B: g.Normal(0, 0.1, 3, cfg.Vocab)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// fullAdapter builds a rank-r adapter on every block linear and the LM head
// of a cfg-shaped model.
func fullAdapter(t testing.TB, name string, seed int64, cfg Config, rank int) *Adapter {
	t.Helper()
	g := tensor.NewRNG(seed)
	pair := func(target string, in, out int) AdapterPair {
		return AdapterPair{Target: target, A: g.Normal(0, 0.1, in, rank), B: g.Normal(0, 0.1, rank, out)}
	}
	pairs := []AdapterPair{pair("lmhead", cfg.Dim, cfg.Vocab)}
	for l := 0; l < cfg.Layers; l++ {
		for wi, name := range blockWeightNames {
			in, out := cfg.Dim, cfg.Dim
			switch wi {
			case wmGate, wmUp:
				out = cfg.Hidden
			case wmDown:
				in = cfg.Hidden
			}
			pairs = append(pairs, pair(fmt.Sprintf("block%d.%s", l, name), in, out))
		}
	}
	a, err := NewAdapter(name, 2*float32(rank), pairs)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAdapterRoundTrip(t *testing.T) {
	m := adapterTestModel(21)
	a := buildAdapter(t, "rt", 5, m.Cfg)
	path := filepath.Join(t.TempDir(), "rt")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := LoadAdapterFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "rt" || b.Rank() != 3 || b.Alpha() != 8 {
		t.Fatalf("loaded adapter = %s rank %d alpha %v, want rt/3/8", b.Name(), b.Rank(), b.Alpha())
	}
	if len(b.Targets()) != 3 || b.Targets()[0] != "block0.wq" {
		t.Fatalf("loaded targets = %v", b.Targets())
	}
	// The loaded adapter must generate identically to the original.
	prompt := []int{1, 2, 3}
	cfg := SampleConfig{MaxTokens: 6}
	dec := NewDecoder(m)
	defer dec.Close()
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	orig, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetAdapter(b); err != nil {
		t.Fatal(err)
	}
	loaded, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range orig {
		if orig[i] != loaded[i] {
			t.Fatalf("loaded adapter diverged at token %d: %v vs %v", i, loaded, orig)
		}
	}
}

// TestAdapterCorruptionDetected: a hostile header claiming an enormous
// target count is a load error, never a panic or a giant allocation. Bit
// flips and truncations of a saved adapter are internal/artifact's
// TestEveryFlipAndTruncationIsALoadError.
func TestAdapterCorruptionDetected(t *testing.T) {
	if _, err := LoadAdapter(strings.NewReader("ELLMADP1\xff\xff\xff\xff")); err == nil {
		t.Fatal("hostile header length loaded")
	}
}

// TestSetAdapterRestoreExact pins that the decoder never writes a model
// weight: every targeted weight is bit-identical to its pristine copy after
// an adapter is set, after a swap, after SetAdapter(nil) and after Close.
func TestSetAdapterRestoreExact(t *testing.T) {
	m := adapterTestModel(23)
	a := buildAdapter(t, "a", 7, m.Cfg)
	b := buildAdapter(t, "b", 8, m.Cfg)

	targets := []*tensor.Tensor{m.Blocks[0].Attn.Wq.W.Data, m.Blocks[1].MLP.Gate.W.Data, m.LMHead.W.Data}
	pristine := make([]*tensor.Tensor, len(targets))
	for i, w := range targets {
		pristine[i] = w.Clone()
	}
	checkPristine := func(stage string) {
		t.Helper()
		for i, w := range targets {
			rowsBitsEqual(t, stage, w.Data, pristine[i].Data)
		}
	}

	dec := NewDecoder(m)
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	if dec.AdapterAt(0) != a {
		t.Fatal("AdapterAt(0) does not report the adapter that was set")
	}
	mustStep(t, dec, 1)
	checkPristine("after apply")
	if err := dec.SetAdapter(b); err != nil {
		t.Fatal(err)
	}
	mustStep(t, dec, 2)
	checkPristine("after swap")
	if err := dec.SetAdapter(nil); err != nil {
		t.Fatal(err)
	}
	checkPristine("after SetAdapter(nil)")
	if dec.AdapterAt(0) != nil {
		t.Fatal("AdapterAt(0) non-nil after SetAdapter(nil)")
	}
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	dec.Close()
	checkPristine("after Close")
}

// TestAdapterSidePathMatchesMergedWeights holds the side path to the merged
// definition of the same adapter, x·(W + (alpha/rank)·A·B), built here: over
// 24 steps the two decoders' logits agree within 1e-4. In float32 the merged
// weight is a different function from the side path x·W + (alpha/rank)·((x·A)·B),
// so this is a tolerance, not an identity; the side path's bitwise reference
// is Model.Logits under LoRA hooks (TestDecoderMatchesFullForward).
func TestAdapterSidePathMatchesMergedWeights(t *testing.T) {
	const seed = 29
	m := adapterTestModel(seed)
	a := fullAdapter(t, "merged", 11, m.Cfg, 3)
	merged := adapterTestModel(seed)
	for _, p := range a.pairs {
		w, _, _, err := merged.adapterSite(p.Target)
		if err != nil {
			t.Fatal(err)
		}
		delta := tensor.New(p.A.Rows(), p.B.Cols())
		tensor.MatMulInto(delta, p.A, p.B)
		delta.ScaleInPlace(a.alpha / float32(a.rank))
		w.AddInPlace(delta)
	}
	side, ref, base := NewDecoder(m), NewDecoder(merged), NewDecoder(m)
	defer side.Close()
	defer ref.Close()
	defer base.Close()
	if err := side.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	var worst, effect float64
	for pos := 0; pos < m.Cfg.MaxSeq; pos++ {
		tok := (5*pos + 3) % m.Cfg.Vocab
		got, want, plain := mustStep(t, side, tok), mustStep(t, ref, tok), mustStep(t, base, tok)
		for j := range got {
			worst = math.Max(worst, math.Abs(float64(got[j]-want[j])))
			effect = math.Max(effect, math.Abs(float64(got[j]-plain[j])))
		}
	}
	if worst > 1e-4 {
		t.Fatalf("side path and merged weights differ by %g over %d steps, want ≤ 1e-4", worst, m.Cfg.MaxSeq)
	}
	if effect < 1e-2 {
		t.Fatalf("adapter moves the logits by only %g: the comparison proves nothing", effect)
	}
}

// TestSetAdapterValidatesBeforeMutating: a mismatched adapter must fail
// without touching any weight.
func TestSetAdapterValidatesBeforeMutating(t *testing.T) {
	m := adapterTestModel(24)
	g := tensor.NewRNG(1)
	// Second target is bogus: first target's weights must not be patched.
	bad, err := NewAdapter("bad", 4, []AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, m.Cfg.Dim, 2), B: g.Normal(0, 0.1, 2, m.Cfg.Dim)},
		{Target: "block9.wq", A: g.Normal(0, 0.1, m.Cfg.Dim, 2), B: g.Normal(0, 0.1, 2, m.Cfg.Dim)},
	})
	if err != nil {
		t.Fatal(err)
	}
	wrongShape, err := NewAdapter("shape", 4, []AdapterPair{
		{Target: "block0.wq", A: g.Normal(0, 0.1, m.Cfg.Dim+1, 2), B: g.Normal(0, 0.1, 2, m.Cfg.Dim)},
	})
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float32(nil), m.Blocks[0].Attn.Wq.W.Data.Data...)
	dec := NewDecoder(m)
	defer dec.Close()
	for _, a := range []*Adapter{bad, wrongShape} {
		if err := dec.SetAdapter(a); err == nil {
			t.Fatalf("adapter %s applied despite invalid target", a.Name())
		}
		if dec.AdapterAt(0) != nil {
			t.Fatal("failed SetAdapter left an adapter installed")
		}
	}
	for i, v := range m.Blocks[0].Attn.Wq.W.Data.Data {
		if v != before[i] {
			t.Fatal("failed SetAdapter mutated weights")
		}
	}
}

// TestAdapterChangesGeneration sanity-checks that a non-trivial adapter
// actually alters decoding (otherwise the grouping tests prove nothing).
func TestAdapterChangesGeneration(t *testing.T) {
	m := adapterTestModel(25)
	a := buildAdapter(t, "strong", 9, m.Cfg)
	prompt := []int{4, 5, 6}
	cfg := SampleConfig{MaxTokens: 8}
	dec := NewDecoder(m)
	defer dec.Close()
	base, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	adapted, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range base {
		if base[i] != adapted[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("adapter had no effect on generation: %v", base)
	}
}

// TestAdapterExitHeadTargets covers exit-head targeting: valid on untied
// exits, where a decoder bound to it steps as the base model does (an exit
// pair decodes nothing), rejected on tied ones and out-of-range indices.
func TestAdapterExitHeadTargets(t *testing.T) {
	g := tensor.NewRNG(3)
	cfg := Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24, ExitHeads: true}
	m := NewModel(cfg, tensor.NewRNG(26))
	a, err := NewAdapter("exit", 2, []AdapterPair{
		{Target: "exit0", A: g.Normal(0, 0.1, cfg.Dim, 2), B: g.Normal(0, 0.1, 2, cfg.Vocab)},
	})
	if err != nil {
		t.Fatal(err)
	}
	dec, base := NewDecoder(m), NewDecoder(m)
	if err := dec.SetAdapter(a); err != nil {
		t.Fatalf("exit-head adapter rejected: %v", err)
	}
	for _, tok := range []int{3, 1, 4} {
		rowsBitsEqual(t, fmt.Sprintf("exit-adapted step of token %d", tok), mustStep(t, dec, tok), mustStep(t, base, tok))
	}
	dec.Close()
	base.Close()

	tied := NewModel(Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24,
		ExitHeads: true, TieExitHeads: true}, tensor.NewRNG(27))
	decTied := NewDecoder(tied)
	defer decTied.Close()
	if err := decTied.SetAdapter(a); err == nil {
		t.Fatal("tied exit head accepted an exit adapter")
	}
}

// TestAdapterArtifactOnDiskCorruption is the end-to-end registry scenario:
// corrupt the file in place, loading must fail cleanly.
func TestAdapterArtifactOnDiskCorruption(t *testing.T) {
	m := adapterTestModel(28)
	a := buildAdapter(t, "disk", 10, m.Cfg)
	path := filepath.Join(t.TempDir(), "disk")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fault.NewCorrupter(7).FlipRandomBit(raw)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadAdapterFile(path); err == nil {
		t.Fatal("corrupted on-disk artifact loaded")
	}
}

// FuzzLoadAdapter feeds the adapter loader outside bytes: it must return an
// error or an adapter that survives one use — SetAdapter on the model the
// seeds were built for (a misfit is an error, not a panic) and a step under
// it. Almost every mutation dies at the CRC, so each input is also tried
// resealed, its body under a freshly computed footer.
func FuzzLoadAdapter(f *testing.F) {
	m := adapterTestModel(30)
	for _, a := range []*Adapter{buildAdapter(f, "some", 12, m.Cfg), fullAdapter(f, "all", 13, m.Cfg, 2)} {
		var buf bytes.Buffer
		if err := a.Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	load := func(t *testing.T, data []byte) {
		a, err := LoadAdapter(bytes.NewReader(data))
		if err != nil {
			return
		}
		d := NewDecoder(m)
		defer d.Close()
		if d.SetAdapter(a) == nil {
			mustStep(t, d, 1)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		load(t, data)
		load(t, fault.Reseal(data))
	})
}
