package hwsim

import (
	"math"

	"edgellm/internal/nn"
)

// LayerCompression is one block's LUC setting as seen by the hardware.
type LayerCompression struct {
	Bits     int
	Sparsity float64
}

// Uncompressed returns the fp16 baseline setting.
func Uncompressed() LayerCompression { return LayerCompression{Bits: 16, Sparsity: 0} }

// Scheduler chooses a schedule per GEMM. SearchedScheduler memoises
// exhaustive search results; NaiveScheduler always returns the baseline
// mapping.
type Scheduler interface {
	Schedule(d Device, g GEMM) (Schedule, Cost)
	Name() string
}

// NaiveScheduler maps every kernel with NaiveSchedule.
type NaiveScheduler struct{}

// Schedule implements Scheduler.
func (NaiveScheduler) Schedule(d Device, g GEMM) (Schedule, Cost) {
	s := NaiveSchedule()
	return s, s.Cost(d, g)
}

// Name implements Scheduler.
func (NaiveScheduler) Name() string { return "naive" }

// SearchedScheduler exhaustively searches the schedule space per distinct
// GEMM shape, memoising results.
type SearchedScheduler struct {
	cache map[GEMM]scheduled
}

type scheduled struct {
	s Schedule
	c Cost
}

// NewSearchedScheduler returns an empty memoised searcher.
func NewSearchedScheduler() *SearchedScheduler {
	return &SearchedScheduler{cache: map[GEMM]scheduled{}}
}

// Schedule implements Scheduler.
func (ss *SearchedScheduler) Schedule(d Device, g GEMM) (Schedule, Cost) {
	if hit, ok := ss.cache[g]; ok {
		return hit.s, hit.c
	}
	s, c := SearchExhaustive(d, g)
	ss.cache[g] = scheduled{s: s, c: c}
	return s, c
}

// Name implements Scheduler.
func (ss *SearchedScheduler) Name() string { return "searched" }

// blockGEMMs lists the seven weight GEMMs of one transformer block's
// forward pass for rows = batch·seq tokens.
func blockGEMMs(cfg nn.Config, rows int, comp LayerCompression) []GEMM {
	d, h := cfg.Dim, cfg.Hidden
	w := func(k, n int) GEMM {
		return GEMM{M: rows, K: k, N: n, WeightBits: comp.Bits, WeightSparsity: comp.Sparsity}
	}
	return []GEMM{
		w(d, d), w(d, d), w(d, d), w(d, d), // wq wk wv wo
		w(d, h), w(d, h), w(h, d), // gate up down
	}
}

// attentionCost models the two batched attention GEMMs (QKᵀ and PV, per
// batch·head) plus the memory-bound softmax pass. Activations are fp16 and
// unpruned, so compression does not change this term.
func attentionCost(dev Device, sched Scheduler, cfg nn.Config, batch, seq int) Cost {
	hd := cfg.Dim / cfg.Heads
	// One head's score GEMM: (seq × hd) · (hd × seq).
	score := GEMM{M: seq, K: hd, N: seq, WeightBits: 16}
	// One head's value GEMM: (seq × seq) · (seq × hd).
	value := GEMM{M: seq, K: seq, N: hd, WeightBits: 16}
	_, cs := sched.Schedule(dev, score)
	_, cv := sched.Schedule(dev, value)
	heads := float64(batch * cfg.Heads)
	total := cs.Scale(heads).Add(cv.Scale(heads))
	// Softmax: read+write the score matrix once, negligible compute.
	softmaxBytes := heads * float64(seq) * float64(seq) * 2 * bytesA
	total.MemorySec += softmaxBytes / dev.DRAMBandwidth
	total.TotalSec += softmaxBytes / dev.DRAMBandwidth
	total.TrafficBytes += softmaxBytes
	return total
}

// elementwiseBytes returns the DRAM traffic of one block's *unfused*
// elementwise passes: the two RMSNorms (read+write rows×dim each), the two
// residual adds (two reads + one write), and the SwiGLU SiLU⊙up pass
// (two reads + one write over rows×hidden). A fusing compiler folds these
// into the adjacent GEMMs' epilogues, eliminating the traffic entirely —
// that difference is what the fusion ablation measures.
func elementwiseBytes(cfg nn.Config, batch, seq int) float64 {
	rows := float64(batch * seq)
	dimPass := rows * float64(cfg.Dim) * bytesA
	hiddenPass := rows * float64(cfg.Hidden) * bytesA
	norms := 2 * 2 * dimPass     // two norms, read+write
	residuals := 2 * 3 * dimPass // two adds, 2 reads + 1 write
	swiglu := 3 * hiddenPass     // silu(gate)⊙up: 2 reads + 1 write
	return norms + residuals + swiglu
}

// addElementwise charges the unfused elementwise traffic to a cost.
func addElementwise(dev Device, c Cost, bytes float64) Cost {
	sec := bytes / dev.DRAMBandwidth
	c.MemorySec += sec
	c.TotalSec += sec
	c.TrafficBytes += bytes
	return c
}

// BlockForwardCost models one block's forward pass with elementwise ops
// fused into the GEMM epilogues (the searched-compiler setting).
func BlockForwardCost(dev Device, sched Scheduler, cfg nn.Config, batch, seq int, comp LayerCompression) Cost {
	return BlockForwardCostOpts(dev, sched, cfg, batch, seq, comp, true)
}

// BlockForwardCostOpts models one block's forward pass; with
// fuseElementwise false, every norm/residual/activation pass pays its own
// DRAM round trip.
func BlockForwardCostOpts(dev Device, sched Scheduler, cfg nn.Config, batch, seq int, comp LayerCompression, fuseElementwise bool) Cost {
	rows := batch * seq
	var total Cost
	for _, g := range blockGEMMs(cfg, rows, comp) {
		_, c := sched.Schedule(dev, g)
		total = total.Add(c)
	}
	total = total.Add(attentionCost(dev, sched, cfg, batch, seq))
	if !fuseElementwise {
		total = addElementwise(dev, total, elementwiseBytes(cfg, batch, seq))
	}
	return total
}

// BlockBackwardCost models one block's backward pass with fused
// elementwise gradients: for every forward GEMM y = x·W there are two
// backward GEMMs — dX = dY·Wᵀ (which reads the compressed weights) and
// dW = Xᵀ·dY (fp16 operands) — plus roughly 2× the attention work.
func BlockBackwardCost(dev Device, sched Scheduler, cfg nn.Config, batch, seq int, comp LayerCompression) Cost {
	return BlockBackwardCostOpts(dev, sched, cfg, batch, seq, comp, true)
}

// BlockBackwardCostOpts is BlockBackwardCost with explicit fusion control;
// unfused backward pays roughly twice the forward's elementwise traffic
// (gradients flow through every elementwise op).
func BlockBackwardCostOpts(dev Device, sched Scheduler, cfg nn.Config, batch, seq int, comp LayerCompression, fuseElementwise bool) Cost {
	rows := batch * seq
	var total Cost
	for _, g := range blockGEMMs(cfg, rows, comp) {
		// dX = dY (M×N) · Wᵀ (N×K): weight-operand GEMM at compressed width.
		dx := GEMM{M: g.M, K: g.N, N: g.K, WeightBits: g.WeightBits, WeightSparsity: g.WeightSparsity}
		// dW = Xᵀ (K×M) · dY (M×N): both operands fp16 activations.
		dw := GEMM{M: g.K, K: g.M, N: g.N, WeightBits: 16}
		_, cx := sched.Schedule(dev, dx)
		_, cw := sched.Schedule(dev, dw)
		total = total.Add(cx).Add(cw)
	}
	att := attentionCost(dev, sched, cfg, batch, seq)
	total = total.Add(att.Scale(2))
	if !fuseElementwise {
		total = addElementwise(dev, total, 2*elementwiseBytes(cfg, batch, seq))
	}
	return total
}

// headCost models the vocabulary projection (the exit head or final head).
func headCost(dev Device, sched Scheduler, cfg nn.Config, batch, seq int, backward bool) Cost {
	rows := batch * seq
	g := GEMM{M: rows, K: cfg.Dim, N: cfg.Vocab, WeightBits: 16}
	_, c := sched.Schedule(dev, g)
	if !backward {
		return c
	}
	dx := GEMM{M: rows, K: cfg.Vocab, N: cfg.Dim, WeightBits: 16}
	dw := GEMM{M: cfg.Dim, K: rows, N: cfg.Vocab, WeightBits: 16}
	_, cx := sched.Schedule(dev, dx)
	_, cw := sched.Schedule(dev, dw)
	return c.Add(cx).Add(cw)
}

// IterationSpec describes one tuning iteration's hardware workload.
type IterationSpec struct {
	Cfg   nn.Config
	Batch int
	Seq   int
	// Compression holds one entry per block (use Uncompressed() for
	// vanilla tuning).
	Compression []LayerCompression
	// WindowLo/WindowHi is the tuned block range; the loss is computed at
	// the exit above WindowHi, so forward runs blocks [0, WindowHi] and
	// backward runs blocks [WindowLo, WindowHi].
	WindowLo, WindowHi int
}

// VanillaIteration returns the spec of a full fine-tuning iteration on the
// uncompressed model: forward and backward over every block.
func VanillaIteration(cfg nn.Config, batch, seq int) IterationSpec {
	return IterationSpec{
		Cfg: cfg, Batch: batch, Seq: seq,
		WindowLo: 0, WindowHi: cfg.Layers - 1,
	}.WithCompression(Uncompressed())
}

// WithCompression returns spec with every block at comp.
func (spec IterationSpec) WithCompression(comp LayerCompression) IterationSpec {
	spec.Compression = make([]LayerCompression, spec.Cfg.Layers)
	for i := range spec.Compression {
		spec.Compression[i] = comp
	}
	return spec
}

// IterationCost models one tuning iteration: forward through blocks
// [0, WindowHi], the head, and backward through [WindowLo, WindowHi].
func IterationCost(dev Device, sched Scheduler, spec IterationSpec) Cost {
	if len(spec.Compression) != spec.Cfg.Layers {
		panic("hwsim: Compression must have one entry per layer")
	}
	if spec.WindowLo < 0 || spec.WindowHi >= spec.Cfg.Layers || spec.WindowLo > spec.WindowHi {
		panic("hwsim: invalid window")
	}
	var total Cost
	for i := 0; i <= spec.WindowHi; i++ {
		total = total.Add(BlockForwardCost(dev, sched, spec.Cfg, spec.Batch, spec.Seq, spec.Compression[i]))
	}
	total = total.Add(headCost(dev, sched, spec.Cfg, spec.Batch, spec.Seq, false))
	for i := spec.WindowLo; i <= spec.WindowHi; i++ {
		total = total.Add(BlockBackwardCost(dev, sched, spec.Cfg, spec.Batch, spec.Seq, spec.Compression[i]))
	}
	total = total.Add(headCost(dev, sched, spec.Cfg, spec.Batch, spec.Seq, true))
	return total
}

// SlidingWindow is the window schedule of width w whose top visits block i
// at iteration i, clipped at the bottom of the stack.
func SlidingWindow(w int) func(i int) (lo, hi int) {
	return func(i int) (int, int) { return max(0, i-w+1), i }
}

// CycleCost is the mean IterationCost of spec over one cycle of a window
// schedule: iterations 0..n-1, window(i) giving each one's block range
// (spec's own WindowLo/WindowHi are ignored).
func CycleCost(dev Device, sched Scheduler, spec IterationSpec, n int, window func(i int) (lo, hi int)) Cost {
	var sum Cost
	for i := 0; i < n; i++ {
		spec.WindowLo, spec.WindowHi = window(i)
		sum = sum.Add(IterationCost(dev, sched, spec))
	}
	return sum.Scale(1 / float64(n))
}

// Speedup returns a/b as a ratio of total seconds.
func Speedup(baseline, improved Cost) float64 {
	if improved.TotalSec == 0 {
		return math.Inf(1)
	}
	return baseline.TotalSec / improved.TotalSec
}
