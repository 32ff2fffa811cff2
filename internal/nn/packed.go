package nn

import (
	"fmt"

	"edgellm/internal/quant"
	"edgellm/internal/tensor"
)

// Block weight indices into PackedModel's per-layer matrix table, in
// Block.WeightMatrices order.
const (
	wmWq = iota
	wmWk
	wmWv
	wmWo
	wmGate
	wmUp
	wmDown
	numBlockWeights
)

// blockWeightNames are the adapter target suffixes ("block<N>.<name>") of the
// block weights, in the same order.
var blockWeightNames = [numBlockWeights]string{"wq", "wk", "wv", "wo", "gate", "up", "down"}

// PackSpec selects the packed representation of one transformer block's
// weight matrices: quant.Pack's symmetric codes with one scale per column.
// The zero value keeps the layer at float32.
type PackSpec struct {
	// Bits is the code width, 0 (keep float32) or 2..8.
	Bits int
}

// PackedModel holds the bit-packed block weights of a model whose float32
// block matrices have been released: after PackModel, the packed codes are
// the only resident copy of each packed layer, and StepBatch executes them
// as fused tensor.MatMulPackedColsInto column units on the decoder's lane
// team. A PackedModel is immutable after construction and safe to share
// across decoders (each decoder owns its scratch).
type PackedModel struct {
	mats [][]tensor.PackedMat

	packedBytes   int64
	releasedBytes int64
}

// PackModel packs each block selected by specs (one PackSpec per layer;
// Bits 0 keeps the layer at float32) and releases the float32 backing of
// every packed matrix: the buffer is handed to pool (becoming reusable
// scratch/arena memory and leaving the pool's BytesInUse accounting), and
// the weight tensor keeps its shape but drops its data, so any stale
// float32 use of a packed weight fails fast instead of reading zeros.
// Embeddings, norms, and heads always stay float32 — LUC compresses
// blocks only.
//
// Callers that want the release visible as a live-bytes drop should
// Pool.Adopt the block weights (AdoptWeights) before packing;
// TestServeBitsWithAdapters (cmd/edgellm) asserts exactly that drop. Adapters are unaffected: a packed weight keeps
// its shape, which is all SetAdapter reads of it, and the side path runs
// after the packed kernel as it does after the float32 one.
func PackModel(m *Model, specs []PackSpec, pool *tensor.Pool) (*PackedModel, error) {
	if len(specs) != len(m.Blocks) {
		return nil, fmt.Errorf("nn: PackModel got %d specs for %d layers", len(specs), len(m.Blocks))
	}
	for l, s := range specs {
		if s.Bits == 0 {
			continue
		}
		if s.Bits < 2 || s.Bits > 8 {
			return nil, fmt.Errorf("nn: PackModel layer %d bits %d out of {0, 2..8}", l, s.Bits)
		}
	}
	pm := &PackedModel{
		mats: make([][]tensor.PackedMat, len(m.Blocks)),
	}
	for l, blk := range m.Blocks {
		pm.mats[l] = make([]tensor.PackedMat, numBlockWeights)
		s := specs[l]
		if s.Bits == 0 {
			continue
		}
		for wi, w := range blk.WeightMatrices() {
			if len(w.Data) == 0 {
				return nil, fmt.Errorf("nn: PackModel layer %d weight %d already released", l, wi)
			}
			p := quant.Pack(w, s.Bits)
			pm.packedBytes += p.StorageBytes()
			pm.mats[l][wi] = p
			pm.releasedBytes += int64(len(w.Data)) * 4
			// Hand the float32 backing to the pool under a detached
			// header: the live tensor keeps its shape (In/Out and shape
			// checks still work) but loses its data, so the packed codes
			// are the only resident copy.
			pool.Put(&tensor.Tensor{Shape: append([]int(nil), w.Shape...), Data: w.Data})
			w.Data = nil
		}
	}
	return pm, nil
}

// AdoptWeights registers every block weight matrix of m with pool's
// BytesInUse accounting (tensor.Pool.Adopt). Pairing it with PackModel
// makes the pool's live bytes tell the whole story: adopt → weights
// counted; pack → packed layers' float32 buffers returned, live bytes
// drop by exactly the released footprint. Returns the adopted bytes.
func AdoptWeights(m *Model, pool *tensor.Pool) int64 {
	var n int64
	for _, blk := range m.Blocks {
		for _, w := range blk.WeightMatrices() {
			pool.Adopt(w)
			n += int64(len(w.Data)) * 4
		}
	}
	return n
}

// StorageBytes returns the total resident bytes of all packed matrices —
// the quantity that replaces the released float32 footprint.
func (pm *PackedModel) StorageBytes() int64 { return pm.packedBytes }

// ReleasedBytes returns the float32 bytes PackModel handed back to the
// pool.
func (pm *PackedModel) ReleasedBytes() int64 { return pm.releasedBytes }

// SetPacked routes the decoder's block matmuls through pm's fused packed
// kernels (nil: back to float32). It is independent of SetAdapter and may
// come before or after it. Safe to share one PackedModel across decoders —
// the tile-decode scratch is per-decoder.
func (d *Decoder) SetPacked(pm *PackedModel) error {
	if pm == nil {
		d.packed, d.pscratch = nil, nil
		return nil
	}
	if len(pm.mats) != len(d.m.Blocks) {
		return fmt.Errorf("nn: packed model covers %d layers, model has %d", len(pm.mats), len(d.m.Blocks))
	}
	for l, blk := range d.m.Blocks {
		for wi, w := range blk.WeightMatrices() {
			mat := pm.mats[l][wi]
			if mat == nil {
				if len(w.Data) == 0 {
					return fmt.Errorf("nn: layer %d weight %d is released but has no packed form", l, wi)
				}
				continue
			}
			r, c := mat.Dims()
			if r != w.Shape[0] || c != w.Shape[1] {
				return fmt.Errorf("nn: layer %d weight %d packed shape (%d,%d) does not match %v", l, wi, r, c, w.Shape)
			}
		}
	}
	d.packed = pm
	d.pscratch = tensor.NewPackedScratch()
	return nil
}
