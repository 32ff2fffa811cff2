package adapt

import (
	"math"
	"path/filepath"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func exportTestModel(seed int64) *nn.Model {
	cfg := nn.Config{Vocab: 29, Dim: 12, Heads: 3, Layers: 2, Hidden: 20, MaxSeq: 24}
	return nn.NewModel(cfg, tensor.NewRNG(seed))
}

// TestExportDeltaMatchesTrainingHook pins the serving-artifact semantics:
// a decoder under the exported adapter computes what was trained — its
// logits agree with the full forward through the live training-time hooks,
// under the tolerance the base decoder is held to against the base forward.
func TestExportDeltaMatchesTrainingHook(t *testing.T) {
	m := exportTestModel(31)
	g := tensor.NewRNG(7)
	set := InstallLoRA(m, g, 2, 4)
	// B starts zero (identity adapter); give it signal so the adapter's
	// term is non-trivial.
	for _, p := range set.Params() {
		for i := range p.Value.Data.Data {
			if p.Value.Data.Data[i] == 0 {
				p.Value.Data.Data[i] = 0.01 * float32(i%7)
			}
		}
	}
	a, err := set.Export("tuned")
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "tuned" || a.Rank() != 2 || a.Alpha() != 4 {
		t.Fatalf("exported adapter = %s rank %d alpha %v", a.Name(), a.Rank(), a.Alpha())
	}
	if got, want := len(a.Targets()), 7*m.Cfg.Layers; got != want {
		t.Fatalf("exported %d targets, want %d", got, want)
	}

	seq := []int{3, 1, 4, 1, 5, 9, 2, 6}
	hooked := m.Logits([][]int{seq}).Data
	set.Remove()
	base := m.Logits([][]int{seq}).Data

	dec := nn.NewDecoder(m)
	defer dec.Close()
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	var effect float64
	for pos, tok := range seq {
		row, err := dec.Step(tok)
		if err != nil {
			t.Fatal(err)
		}
		want := hooked.Row(pos)
		for j := range row {
			if math.Abs(float64(row[j]-want[j])) > 1e-4 {
				t.Fatalf("pos %d vocab %d: served %v vs training-hook forward %v", pos, j, row[j], want[j])
			}
			effect = math.Max(effect, math.Abs(float64(want[j]-base.Row(pos)[j])))
		}
	}
	if effect < 1e-2 {
		t.Fatalf("the hooks move the logits by only %g: the comparison proves nothing", effect)
	}
}

// TestExportServesThroughRegistryFormat: Export → SaveFile → LoadAdapterFile
// generates identically to the in-memory export.
func TestExportServesThroughRegistryFormat(t *testing.T) {
	m := exportTestModel(32)
	set := InstallLoRA(m, tensor.NewRNG(8), 2, 8)
	for _, p := range set.Params() {
		for i := range p.Value.Data.Data {
			if p.Value.Data.Data[i] == 0 {
				p.Value.Data.Data[i] = 0.02 * float32((i%5)-2)
			}
		}
	}
	a, err := set.Export("served")
	if err != nil {
		t.Fatal(err)
	}
	set.Remove() // serving uses the artifact, not the live hooks

	path := filepath.Join(t.TempDir(), "served")
	if err := a.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadAdapterFile(path)
	if err != nil {
		t.Fatal(err)
	}

	prompt := []int{3, 1, 4}
	cfg := nn.SampleConfig{MaxTokens: 6}
	dec := nn.NewDecoder(m)
	defer dec.Close()
	if err := dec.SetAdapter(a); err != nil {
		t.Fatal(err)
	}
	mem, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.SetAdapter(loaded); err != nil {
		t.Fatal(err)
	}
	disk, err := dec.Generate(prompt, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mem {
		if mem[i] != disk[i] {
			t.Fatalf("artifact roundtrip diverged at token %d: %v vs %v", i, disk, mem)
		}
	}
}

func TestExportAfterRemoveFails(t *testing.T) {
	m := exportTestModel(33)
	set := InstallLoRA(m, tensor.NewRNG(9), 2, 4)
	set.Remove()
	if _, err := set.Export("gone"); err == nil {
		t.Fatal("Export after Remove must fail")
	}
}
