package artifact_test

import (
	"bytes"
	"io"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
	"edgellm/internal/train"
)

// Seeded small instances of the four artifact kinds (packed weights in both
// encodings). Every float is an integer over 1024, exact in float32 on any
// architecture, so the bytes — and the sha256 pinned in kinds — do not depend
// on libm or on whether the compiler fuses multiply-adds.

var fixtureCfg = nn.Config{Vocab: 7, Dim: 4, Heads: 2, Layers: 2, Hidden: 6, MaxSeq: 4, ExitHeads: true}

func fill(t *tensor.Tensor, seed int) *tensor.Tensor {
	for i := range t.Data {
		t.Data[i] = float32((i*7919+seed*104729)%2003-1001) / 1024
	}
	return t
}

func fixtureModel() *nn.Model {
	m := nn.NewModel(fixtureCfg, tensor.NewRNG(1))
	for i, p := range m.Params() {
		fill(p.Value.Data, i+1)
	}
	return m
}

func saved(t testing.TB, save func(io.Writer) error) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkpointBytes(t testing.TB) []byte { return saved(t, fixtureModel().Save) }

func adapterBytes(t testing.TB) []byte {
	c := fixtureCfg
	a, err := nn.NewAdapter("golden", 4, []nn.AdapterPair{
		{Target: "block0.wq", A: fill(tensor.New(c.Dim, 2), 31), B: fill(tensor.New(2, c.Dim), 32)},
		{Target: "block1.down", A: fill(tensor.New(c.Hidden, 2), 33), B: fill(tensor.New(2, c.Dim), 34)},
		{Target: "lmhead", A: fill(tensor.New(c.Dim, 2), 35), B: fill(tensor.New(2, c.Vocab), 36)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return saved(t, a.Save)
}

// fixtureTrainer is the trainer a snapshot fixture is written from and read
// back into: AdamW, as the tuning loops use.
func fixtureTrainer() *train.Trainer { return train.NewTrainer(train.NewAdamW(0.01), 0.01, 1.0) }

func snapshotBytes(t testing.TB) []byte {
	m, tr := fixtureModel(), fixtureTrainer()
	slots := map[string]*tensor.Tensor{}
	for i, p := range m.Params()[:3] {
		slots["m/"+p.Name] = fill(tensor.New(p.Value.Data.Shape...), 41+i)
		slots["v/"+p.Name] = fill(tensor.New(p.Value.Data.Shape...), 51+i)
	}
	tr.Opt.ImportState(3, slots)
	tr.SetStepCount(3)
	loop := train.NewLoop(m, tr, train.LoopConfig{Seed: 5})
	if _, err := loop.Run(3, func(_ int, rng *tensor.RNG) (float64, error) {
		rng.Intn(10)
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	return saved(t, loop.WriteSnapshot)
}

func packedBytes(t testing.TB, p io.WriterTo) []byte {
	return saved(t, func(w io.Writer) error { _, err := p.WriteTo(w); return err })
}

func uniform4Bytes(t testing.TB) []byte {
	return packedBytes(t, quant.Pack(fill(tensor.New(9, 13), 61), 4))
}

func nf4Bytes(t testing.TB) []byte {
	return packedBytes(t, quant.PackNF(fill(tensor.New(9, 13), 62), quant.NFScheme{Bits: 4, BlockSize: 16}))
}
