package artifact_test

import (
	"bytes"
	"io"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// Seeded small instances of the three artifact kinds. Every float is an integer over 1024, exact in float32 on any
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

func packedBytes(t testing.TB, p io.WriterTo) []byte {
	return saved(t, func(w io.Writer) error { _, err := p.WriteTo(w); return err })
}

func uniform4Bytes(t testing.TB) []byte {
	return packedBytes(t, quant.Pack(fill(tensor.New(9, 13), 61), 4))
}
