package nn

import (
	"fmt"
	"strings"

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
// weight matrices. The zero value keeps the layer at float32.
type PackSpec struct {
	// Bits is the code width, 0 (keep float32) or 2..8.
	Bits int
	// NF selects the NF codebook path instead of uniform symmetric
	// per-column quantization.
	NF bool
	// NFBlock is the NF scale-block size (0 = whole tensor). Ignored for
	// uniform packing.
	NFBlock int
}

// String renders the spec, e.g. "f32", "4b", "nf4".
func (s PackSpec) String() string {
	if s.Bits == 0 {
		return "f32"
	}
	if s.NF {
		return fmt.Sprintf("nf%d", s.Bits)
	}
	return fmt.Sprintf("%db", s.Bits)
}

// PackedModel holds the bit-packed block weights of a model whose float32
// block matrices have been released: after PackModel, the packed codes are
// the only resident copy of each packed layer, and StepBatch executes them
// through the fused tensor.MatMulPackedInto kernels. A PackedModel is
// immutable after construction and safe to share across decoders (each
// decoder owns its scratch).
type PackedModel struct {
	mats [][]tensor.PackedMat
	spec []PackSpec

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
// Pool.Adopt the block weights (AdoptWeights) before packing; decode-bench
// asserts exactly that drop. Adapters are unaffected: a packed weight keeps
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
		spec: append([]PackSpec(nil), specs...),
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
			var mat tensor.PackedMat
			if s.NF {
				p := quant.PackNF(w, quant.NFScheme{Bits: s.Bits, BlockSize: s.NFBlock})
				pm.packedBytes += p.StorageBytes()
				mat = p
			} else {
				p := quant.Pack(w, s.Bits)
				pm.packedBytes += p.StorageBytes()
				mat = p
			}
			pm.mats[l][wi] = mat
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

// Specs returns the per-layer pack specs (f32 layers included).
func (pm *PackedModel) Specs() []PackSpec { return pm.spec }

// Mat returns the packed matrix of one block weight (nil when the layer
// stayed float32). wi indexes Block.WeightMatrices order.
func (pm *PackedModel) Mat(l, wi int) tensor.PackedMat { return pm.mats[l][wi] }

// StorageBytes returns the total resident bytes of all packed matrices —
// the quantity that replaces the released float32 footprint.
func (pm *PackedModel) StorageBytes() int64 { return pm.packedBytes }

// ReleasedBytes returns the float32 bytes PackModel handed back to the
// pool.
func (pm *PackedModel) ReleasedBytes() int64 { return pm.releasedBytes }

// Describe renders the per-layer specs compactly, e.g. "8b,4b,4b,2b" or
// "nf4×12".
func (pm *PackedModel) Describe() string {
	uniform := true
	for _, s := range pm.spec[1:] {
		if s != pm.spec[0] {
			uniform = false
			break
		}
	}
	if uniform && len(pm.spec) > 0 {
		return fmt.Sprintf("%s×%d", pm.spec[0], len(pm.spec))
	}
	parts := make([]string, len(pm.spec))
	for i, s := range pm.spec {
		parts[i] = s.String()
	}
	return strings.Join(parts, ",")
}

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

// Packed returns the packed model routed through this decoder (nil when
// decoding float32 weights).
func (d *Decoder) Packed() *PackedModel { return d.packed }

// mm runs one block projection, dispatching to the fused packed kernel
// when layer l's weight wi is packed and to the float32 kernel otherwise,
// then adds the adapter's side path for that weight if it has one. Both
// kernels share the same accumulation order, so the dispatch can never
// change logits for a float32 layer.
func (d *Decoder) mm(out, x, w *tensor.Tensor, l, wi int) {
	if d.packed != nil && d.packed.mats[l][wi] != nil {
		tensor.MatMulPackedInto(out, x, d.packed.mats[l][wi], d.pscratch)
	} else {
		tensor.MatMulInto(out, x, w)
	}
	d.addSide(out, x, l, wi)
}
