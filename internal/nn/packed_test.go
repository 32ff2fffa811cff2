package nn

import (
	"math"
	"runtime"
	"testing"

	"edgellm/internal/tensor"
)

// packedTestCfg has blocks wide enough for several column bands. Since the
// fan-out threshold went to 2^23 MACs (8·384·512 here is 2^20.6) a batch-8
// step of a model a test can afford fans out nothing, so the GOMAXPROCS
// sweep below checks the decoder, not banding: banded packed kernels are
// pinned in internal/tensor (TestMatMulPackedDeterministicAcrossProcs,
// TestMatMulPackedGridIdentity).
func packedTestCfg() Config {
	return Config{Vocab: 96, Dim: 384, Heads: 8, Layers: 4, Hidden: 512, MaxSeq: 12}
}

// packedRefModel builds the fake-quant reference for pm: a model with
// identical float32 weights everywhere except the packed layers, whose
// block matrices hold exactly Unpack() of the packed codes. Packed
// decoding must be bitwise identical to decoding this model.
func packedRefModel(cfg Config, seed int64, pm *PackedModel) *Model {
	ref := NewModel(cfg, tensor.NewRNG(seed))
	for l, blk := range ref.Blocks {
		for wi, w := range blk.WeightMatrices() {
			if mat := pm.Mat(l, wi); mat != nil {
				w.CopyFrom(mat.(interface{ Unpack() *tensor.Tensor }).Unpack())
			}
		}
	}
	return ref
}

// decodeLogits batch-decodes a fixed token schedule and returns a copy of
// every logit row produced.
func decodeLogits(t *testing.T, d *Decoder, slots int, steps int) [][]float32 {
	t.Helper()
	slotIDs := make([]int, slots)
	tokens := make([]int, slots)
	for i := range slotIDs {
		s, err := d.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		slotIDs[i] = s
	}
	var out [][]float32
	for step := 0; step < steps; step++ {
		for i := range tokens {
			tokens[i] = (7*step + 13*i) % d.Config().Vocab
		}
		rows, err := d.StepBatch(tokens, slotIDs)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			out = append(out, append([]float32(nil), r...))
		}
	}
	for _, s := range slotIDs {
		d.Release(s)
	}
	return out
}

// TestPackedDecodeBitwiseMatchesFakeQuant pins the end-to-end contract
// over every bit assignment a governed LUC run can emit — the candidate
// grid's widths {8,4,3,2} mixed per layer, the NF codebook path, and
// partially packed models — at GOMAXPROCS 1 and N.
func TestPackedDecodeBitwiseMatchesFakeQuant(t *testing.T) {
	packedMatchesUnpacked(t, nil)
}

// TestPackedAdapterMatchesUnpackedAdapter is the same contract with an
// adapter set on both sides: a decoder over a packed backbone plus an adapter
// gives the bits of a float32 decoder over the Unpack'ed weights plus the
// same adapter.
func TestPackedAdapterMatchesUnpackedAdapter(t *testing.T) {
	packedMatchesUnpacked(t, fullAdapter(t, "packed", 37, packedTestCfg(), 4))
}

func packedMatchesUnpacked(t *testing.T, adapter *Adapter) {
	const seed = 31
	cases := map[string][]PackSpec{
		"uniform4":  {{Bits: 4}, {Bits: 4}, {Bits: 4}, {Bits: 4}},
		"luc-mixed": {{Bits: 8}, {Bits: 4}, {Bits: 3}, {Bits: 2}},
		"nf-mixed":  {{Bits: 4, NF: true, NFBlock: 64}, {Bits: 8}, {Bits: 3, NF: true}, {Bits: 2}},
		"partial":   {{Bits: 0}, {Bits: 4}, {Bits: 0}, {Bits: 2}},
	}
	for name, specs := range cases {
		t.Run(name, func(t *testing.T) {
			m := NewModel(packedTestCfg(), tensor.NewRNG(seed))
			pm, err := PackModel(m, specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			ref := packedRefModel(packedTestCfg(), seed, pm)
			for _, procs := range []int{1, runtime.NumCPU()} {
				old := runtime.GOMAXPROCS(procs)
				pd := NewBatchDecoder(m, 8, nil)
				if err := pd.SetPacked(pm); err != nil {
					t.Fatal(err)
				}
				rd := NewBatchDecoder(ref, 8, nil)
				for _, d := range []*Decoder{pd, rd} {
					if err := d.SetAdapter(adapter); err != nil {
						t.Fatal(err)
					}
				}
				got := decodeLogits(t, pd, 8, 4)
				want := decodeLogits(t, rd, 8, 4)
				pd.Close()
				rd.Close()
				runtime.GOMAXPROCS(old)
				if len(got) != len(want) {
					t.Fatalf("procs %d: %d rows vs %d", procs, len(got), len(want))
				}
				for r := range got {
					for j := range got[r] {
						if math.Float32bits(got[r][j]) != math.Float32bits(want[r][j]) {
							t.Fatalf("procs %d row %d logit %d: packed %v != fake-quant %v",
								procs, r, j, got[r][j], want[r][j])
						}
					}
				}
			}
		})
	}
}

// TestPackedDecodeZeroAllocs re-pins the decode hot loop's allocation
// contract with packed execution enabled.
func TestPackedDecodeZeroAllocs(t *testing.T) {
	pool := tensor.NewPool()
	cfg := packedTestCfg()
	cfg.MaxSeq = 64 // room for the warmup step plus AllocsPerRun's iterations
	m := NewModel(cfg, tensor.NewRNG(5))
	pm, err := PackModel(m, []PackSpec{{Bits: 8}, {Bits: 4}, {Bits: 3, NF: true, NFBlock: 64}, {Bits: 2}}, pool)
	if err != nil {
		t.Fatal(err)
	}
	d := NewBatchDecoder(m, 4, pool)
	defer d.Close()
	if err := d.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	slots := []int{0, 1, 2, 3}
	for range slots {
		if _, err := d.Acquire(); err != nil {
			t.Fatal(err)
		}
	}
	tokens := []int{1, 2, 3, 4}
	for _, a := range []*Adapter{nil, fullAdapter(t, "allocs", 6, cfg, 4)} {
		if err := d.SetAdapter(a); err != nil {
			t.Fatal(err)
		}
		if _, err := d.StepBatch(tokens, slots); err != nil { // warm scratch
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := d.StepBatch(tokens, slots); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("adapter %v: packed StepBatch allocates %.2f/op, want 0", a != nil, allocs)
		}
	}
}

// TestPackModelReleasesWeights pins the memory story: adopted block
// weights leave the pool's live-byte accounting when packed, the drop
// equals the released float32 footprint, and the packed bytes scale with
// the bit budget.
func TestPackModelReleasesWeights(t *testing.T) {
	pool := tensor.NewPool()
	m := NewModel(packedTestCfg(), tensor.NewRNG(9))
	adopted := AdoptWeights(m, pool)
	if got := pool.Stats().BytesInUse; got != adopted {
		t.Fatalf("adopted %d bytes but pool reports %d", adopted, got)
	}
	before := pool.Stats().BytesInUse
	pm, err := PackModel(m, []PackSpec{{Bits: 4}, {Bits: 4}, {Bits: 4}, {Bits: 4}}, pool)
	if err != nil {
		t.Fatal(err)
	}
	drop := before - pool.Stats().BytesInUse
	if drop != pm.ReleasedBytes() || drop != adopted {
		t.Fatalf("pool dropped %d bytes; released %d, adopted %d", drop, pm.ReleasedBytes(), adopted)
	}
	// 4-bit payload plus per-column scales: resident must be far below
	// 32-bit and at least the analytic 1/8 payload ratio.
	if ratio := float64(pm.StorageBytes()) / float64(pm.ReleasedBytes()); ratio < 0.125 || ratio > 0.16 {
		t.Fatalf("4-bit resident ratio %.4f outside [0.125, 0.16]", ratio)
	}
	// The packed weights' float32 data is gone; shapes remain.
	w := m.Blocks[0].Attn.Wq.W.Data
	if len(w.Data) != 0 || w.Rows() != packedTestCfg().Dim {
		t.Fatalf("packed weight not severed: len %d shape %v", len(w.Data), w.Shape)
	}
	// Double-packing a released layer must fail cleanly.
	if _, err := PackModel(m, []PackSpec{{Bits: 2}, {Bits: 0}, {Bits: 0}, {Bits: 0}}, pool); err == nil {
		t.Fatal("PackModel re-packed a released layer")
	}
}

// TestPackedAdapterInteraction pins that packing and adapters compose in
// either call order: an adapter may target a packed layer (SetAdapter reads
// only the weight's shape), SetPacked accepts a decoder with an adapter set,
// and both orders decode the same bits.
func TestPackedAdapterInteraction(t *testing.T) {
	m := NewModel(packedTestCfg(), tensor.NewRNG(12))
	dim := packedTestCfg().Dim
	pair := AdapterPair{Target: "block1.wq", A: tensor.NewRNG(1).Normal(0, 0.1, dim, 2), B: tensor.NewRNG(2).Normal(0, 0.1, 2, dim)}
	ad, err := NewAdapter("t1", 1, []AdapterPair{pair})
	if err != nil {
		t.Fatal(err)
	}
	pm, err := PackModel(m, []PackSpec{{Bits: 0}, {Bits: 4}, {Bits: 0}, {Bits: 0}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	packedFirst := NewBatchDecoder(m, 1, nil)
	defer packedFirst.Close()
	if err := packedFirst.SetPacked(pm); err != nil {
		t.Fatal(err)
	}
	if err := packedFirst.SetAdapter(ad); err != nil {
		t.Fatalf("SetAdapter on a packed target: %v", err)
	}
	adapterFirst := NewBatchDecoder(m, 1, nil)
	defer adapterFirst.Close()
	if err := adapterFirst.SetAdapter(ad); err != nil {
		t.Fatal(err)
	}
	if err := adapterFirst.SetPacked(pm); err != nil {
		t.Fatalf("SetPacked with an adapter set: %v", err)
	}
	for _, tok := range []int{3, 1, 4} {
		rowsBitsEqual(t, "SetPacked→SetAdapter vs SetAdapter→SetPacked", mustStep(t, packedFirst, tok), mustStep(t, adapterFirst, tok))
	}
}
