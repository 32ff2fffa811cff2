package train

import (
	"edgellm/internal/nn"
	"edgellm/internal/quant"
)

// MemoryBreakdown itemises the footprint of one tuning iteration, in bytes.
// This is the quantity Figure F1 and Table T1 report: Edge-LLM's claim is
// that bounding backprop depth shrinks Activations, Grads, and OptState
// together, while LUC shrinks Weights.
type MemoryBreakdown struct {
	// Weights is the storage of all model parameters (compressed blocks at
	// their quantized width, everything else at float32).
	Weights int64
	// Grads is the gradient storage for parameters that receive one.
	Grads int64
	// OptState is the optimizer state for parameters that receive grads.
	OptState int64
	// Activations is the tape storage retained for the backward pass.
	Activations int64
}

// Total returns the sum of all components.
func (b MemoryBreakdown) Total() int64 {
	return b.Weights + b.Grads + b.OptState + b.Activations
}

// MemorySpec describes a tuning configuration for analytic estimation.
type MemorySpec struct {
	Cfg   nn.Config
	Batch int
	Seq   int
	// TapeBlocks is the number of transformer blocks recorded on the
	// autograd tape (the backprop window size; Layers for vanilla tuning).
	TapeBlocks int
	// TrainableElems is the number of parameter elements receiving
	// gradients this step.
	TrainableElems int64
	// OptElems is the number of elements holding optimizer state: under a
	// moving window, everything stepped so far, which outgrows one step's
	// trainables. 0 means TrainableElems.
	OptElems int64
	// BlockWeightBits[i] is the stored bit-width of block i's weight
	// matrices after LUC (32 when uncompressed; fractional for an average
	// bit budget). Length must be Cfg.Layers.
	BlockWeightBits []float64
	// BlockWeightSparsity[i] is the pruned fraction of block i's weights;
	// pruned elements are not stored (compressed-sparse accounting).
	BlockWeightSparsity []float64
	// PackedScales prices compressed blocks (bits < 32) in the executable
	// packed format, quant.Packed: the payload plus packedBlockScaleBytes.
	PackedScales bool
	// OptBytesPerElem is Optimizer.BytesPerElement() of the optimizer used.
	OptBytesPerElem int64
}

// The parameter-count formulas of the model, stated once. Every analytic
// estimator (EstimateMemory, the governor's admission pricing, the method
// table) is assembled from these, so a count can only be wrong in one place.

// BlockWeightElems returns the weight-matrix element count of one block:
// four dim×dim attention projections plus the three SwiGLU matrices.
func BlockWeightElems(cfg nn.Config) int64 {
	d, h := int64(cfg.Dim), int64(cfg.Hidden)
	return 4*d*d + 3*d*h
}

// BlockElems is one block's full parameter count: its weight matrices plus
// the two RMSNorm gains (kept at float32 under compression).
func BlockElems(cfg nn.Config) int64 { return BlockWeightElems(cfg) + 2*int64(cfg.Dim) }

// HeadElems is a norm gain plus a vocab projection: the final head, and
// what tuning through one exit head trains.
func HeadElems(cfg nn.Config) int64 { return int64(cfg.Dim) * (1 + int64(cfg.Vocab)) }

// ExitOwnedElems is what each exit head adds to the model: its norm gain,
// plus its own vocab projection unless exits share the final one.
func ExitOwnedElems(cfg nn.Config) int64 {
	if cfg.TieExitHeads {
		return int64(cfg.Dim)
	}
	return HeadElems(cfg)
}

// ModelParamElems counts every parameter element of a model built from
// cfg without constructing it.
func ModelParamElems(cfg nn.Config) int64 {
	n := int64(cfg.Vocab+cfg.MaxSeq)*int64(cfg.Dim) + HeadElems(cfg) // tok, pos, final norm, lm head
	n += int64(cfg.Layers) * BlockElems(cfg)
	if cfg.ExitHeads {
		n += int64(cfg.Layers) * ExitOwnedElems(cfg)
	}
	return n
}

// WindowTrainableElems is the trainable footprint of tuning `window`
// blocks under one head: an adaptive-tuning window with its exit head, or
// the top-k blocks with the final head.
func WindowTrainableElems(cfg nn.Config, window int) int64 {
	return int64(window)*BlockElems(cfg) + HeadElems(cfg)
}

// BlockActivationBytes returns the bytes of forward activations one
// transformer block retains on the tape for its backward pass, matching the
// tensors our implementation actually keeps: the pre-norm output, q/k/v,
// the attention context and output projection, two residual sums, the
// SwiGLU intermediates, and the per-head attention probabilities.
func BlockActivationBytes(cfg nn.Config, batch, seq int) int64 {
	rows := int64(batch) * int64(seq)
	c, h := int64(cfg.Dim), int64(cfg.Hidden)
	// 8 row×dim tensors: norm1, q, k, v, context, wo-out, residual1, norm2
	// (+ the MLP output add is 1 more; count 9 to include it).
	rowDim := 9 * rows * c
	// 4 row×hidden tensors: gate, silu(gate), up, silu⊙up.
	rowHidden := 4 * rows * h
	// attention probabilities: batch × heads × seq².
	probs := int64(batch) * int64(cfg.Heads) * int64(seq) * int64(seq)
	return 4 * (rowDim + rowHidden + probs)
}

// packedBlockScaleBytes is the per-block metadata overhead of the
// executable packed weight format: what quant.PackedStorageBytes adds to
// the bit-packed payload (one float32 scale per output column) over the
// seven block matrices — wq/wk/wv/wo and down project to Dim columns, gate
// and up to Hidden.
func packedBlockScaleBytes(cfg nn.Config) int64 {
	// A zero-row packed matrix is exactly its scales.
	scales := func(cols int) int64 { return quant.PackedStorageBytes(0, cols, 8) }
	return 5*scales(cfg.Dim) + 2*scales(cfg.Hidden)
}

// blockWeightBytes is the storage of one block's weight matrices at the
// given width with the given fraction pruned away.
func blockWeightBytes(cfg nn.Config, bits, sparsity float64, packedScales bool) int64 {
	kept := float64(BlockWeightElems(cfg)) * (1 - sparsity)
	n := int64(kept * bits / 8)
	if packedScales && bits < 32 {
		n += packedBlockScaleBytes(cfg)
	}
	return n
}

// EstimateMemory computes the analytic per-iteration footprint for spec.
func EstimateMemory(spec MemorySpec) MemoryBreakdown {
	cfg := spec.Cfg
	if len(spec.BlockWeightBits) != cfg.Layers || len(spec.BlockWeightSparsity) != cfg.Layers {
		panic("train: BlockWeightBits/Sparsity must have one entry per layer")
	}
	var b MemoryBreakdown

	// Weights: everything but the block matrices at float32; block matrices
	// at their stored width, pruned elements not stored.
	b.Weights = 4 * (ModelParamElems(cfg) - int64(cfg.Layers)*BlockWeightElems(cfg))
	for i := 0; i < cfg.Layers; i++ {
		b.Weights += blockWeightBytes(cfg, spec.BlockWeightBits[i], spec.BlockWeightSparsity[i], spec.PackedScales)
	}

	// Grads for this step's trainables; optimizer state for everything
	// stepped so far.
	b.Grads = 4 * spec.TrainableElems
	optElems := spec.OptElems
	if optElems == 0 {
		optElems = spec.TrainableElems
	}
	b.OptState = spec.OptBytesPerElem * optElems

	// Activations: tape blocks, plus the embedding sum and the logits /
	// softmax retained by the loss (one row×vocab tensor each).
	d, v := int64(cfg.Dim), int64(cfg.Vocab)
	rows := int64(spec.Batch) * int64(spec.Seq)
	if spec.TapeBlocks > 0 {
		b.Activations = int64(spec.TapeBlocks) * BlockActivationBytes(cfg, spec.Batch, spec.Seq)
		b.Activations += 4 * rows * d     // embedding sum entering the window
		b.Activations += 4 * rows * d     // head norm output
		b.Activations += 2 * 4 * rows * v // logits + softmax probs
	}
	return b
}

// PerLayer is a per-layer bit-width or sparsity list with every block at v.
func PerLayer(layers int, v float64) []float64 {
	out := make([]float64, layers)
	for i := range out {
		out[i] = v
	}
	return out
}

// VanillaSpec describes full fine-tuning of an uncompressed model built
// from cfg: all layers on tape, every parameter trainable. It needs no
// built model, so the governor can price a method before constructing it.
func VanillaSpec(cfg nn.Config, batch, seq int, optBytes int64) MemorySpec {
	return MemorySpec{
		Cfg: cfg, Batch: batch, Seq: seq,
		TapeBlocks:          cfg.Layers,
		TrainableElems:      ModelParamElems(cfg),
		BlockWeightBits:     PerLayer(cfg.Layers, 32),
		BlockWeightSparsity: make([]float64, cfg.Layers),
		OptBytesPerElem:     optBytes,
	}
}

// WindowSpec describes one windowed tuning iteration under a plan: the
// window's blocks and one head trainable, the window on tape — its upper
// half only under checkpointed recompute — and block i stored at bits[i]
// with sparsity[i] of it pruned, in the packed format (nil: float32,
// unpruned). The governor's admission and per-step re-admission, the fleet's
// device admission and the tables' Edge-LLM memory columns all price this
// spec; a caller whose optimizer state has accumulated over earlier windows
// sets OptElems.
func WindowSpec(cfg nn.Config, batch, seq, window int, recompute bool, bits, sparsity []float64, optBytes int64) MemorySpec {
	spec := VanillaSpec(cfg, batch, seq, optBytes)
	spec.TapeBlocks = window
	if recompute {
		spec.TapeBlocks = window - window/2
	}
	spec.TrainableElems = WindowTrainableElems(cfg, window)
	if bits != nil {
		spec.BlockWeightBits, spec.PackedScales = bits, true
	}
	if sparsity != nil {
		spec.BlockWeightSparsity = sparsity
	}
	return spec
}
