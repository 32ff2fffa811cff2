package nn

import (
	"fmt"
	"math"

	"edgellm/internal/tensor"
)

// Forward is the model's one no-grad forward: B equal-length sequences, from
// token ids (Embed) or from a block's input (Load), through any range of
// blocks to the hidden rows at any block (RunTo) and the logits of the final
// head or any exit for every row (Head; Logits is the whole pass). Every pass that takes no gradient runs on it: the frozen prefix of
// a tuning window and its segment starts (train.SegmentedBackward), the LUC
// probe and policy refinement, evaluation and the vote.
//
// It is the arithmetic Decoder.StepBatch shares with Model.Logits —
// tensor.RMSNormRows, tensor.MatMulInto, tensor.AttendHead, tensor.SiLU and
// MulInPlace, and AddInPlace over the residual — applied in the order the
// autograd forward applies them, so every hidden and logit element is the
// bits Model.Logits computes for the same rows, at any batch size and any
// GOMAXPROCS.
//
// Its scratch is owned by the caller, sized by the first batch (B·T rows)
// and grown only by a later batch with more rows; every other call
// allocates nothing. Nothing is cleared: each buffer is written in full
// before it is read. Returned tensors alias the scratch and are valid until
// the next call. A Forward is not safe for concurrent use.
//
// A model whose Linear layers carry Adapter hooks (LoRA) has no no-grad
// form here: Embed and Load panic rather than drop a hook. Such models stay
// on the autograd forward (Model.Logits).
type Forward struct {
	m    *Model
	b, t int // the batch shape being run
	at   int // blocks run: the residual holds block at's input

	x, h, q, k, v, ctx, att fwdBuf // (B·T, dim)
	gate, up                fwdBuf // (B·T, hidden)
	logits                  fwdBuf // (B·T, vocab)
	kT, sc                  []float32
	inv                     []float32 // each row's RMSNorm inv
}

// fwdBuf is one scratch matrix and the view header handed out over it.
type fwdBuf struct {
	data  []float32
	shape [2]int
	view  tensor.Tensor
}

// rows returns the (r, c) view of the buffer's front, growing it if r·c
// floats do not fit.
func (fb *fwdBuf) rows(r, c int) *tensor.Tensor {
	if r*c > len(fb.data) {
		fb.data = make([]float32, r*c)
	}
	fb.shape = [2]int{r, c}
	fb.view = tensor.Tensor{Data: fb.data[:r*c], Shape: fb.shape[:]}
	return &fb.view
}

// NewForward returns a no-grad forward over m.
func NewForward(m *Model) *Forward {
	hd, tp := m.Cfg.Dim/m.Cfg.Heads, (m.Cfg.MaxSeq+7)&^7
	return &Forward{m: m, kT: make([]float32, hd*tp), sc: make([]float32, tp)}
}

// Model returns the model the forward runs.
func (f *Forward) Model() *Model { return f.m }

// Embed loads batch's layer-0 residual stream: token plus position
// embedding for every row, the input of block 0.
func (f *Forward) Embed(batch [][]int) {
	f.checkHooks()
	b, t := len(batch), 0
	if b > 0 {
		t = len(batch[0])
	}
	if b == 0 || t == 0 {
		panic("nn: empty batch")
	}
	if t > f.m.Cfg.MaxSeq {
		panic(fmt.Sprintf("nn: sequence length %d exceeds MaxSeq %d", t, f.m.Cfg.MaxSeq))
	}
	f.begin(b, t, 0)
	dim := f.m.Cfg.Dim
	x, pos := f.x.rows(b*t, dim), f.att.rows(b*t, dim)
	tok, pe := f.m.TokEmb.W.Data, f.m.PosEmb.W.Data
	for i, seq := range batch {
		if len(seq) != t {
			panic(fmt.Sprintf("nn: ragged batch: %d vs %d tokens", len(seq), t))
		}
		for p, id := range seq {
			if id < 0 || id >= f.m.Cfg.Vocab {
				panic(fmt.Sprintf("nn: token %d out of range [0,%d)", id, f.m.Cfg.Vocab))
			}
			r := i*t + p
			copy(x.Row(r), tok.Row(id))
			copy(pos.Row(r), pe.Row(p))
		}
	}
	x.AddInPlace(pos)
}

// Load sets the residual to x, block from's input for batch sequences of
// seq tokens, shape (batch·seq, dim). x is copied; from == Layers leaves
// only the heads to run.
func (f *Forward) Load(x *tensor.Tensor, from, batch, seq int) {
	f.checkHooks()
	if from < 0 || from > len(f.m.Blocks) {
		panic(fmt.Sprintf("nn: Forward.Load block %d out of range [0,%d]", from, len(f.m.Blocks)))
	}
	if batch < 1 || seq < 1 || seq > f.m.Cfg.MaxSeq || x.Rows() != batch*seq || x.Cols() != f.m.Cfg.Dim {
		panic(fmt.Sprintf("nn: Forward.Load %v as %d sequences of %d", x.Shape, batch, seq))
	}
	f.begin(batch, seq, from)
	f.x.rows(batch*seq, f.m.Cfg.Dim).CopyFrom(x)
}

func (f *Forward) begin(b, t, at int) { f.b, f.t, f.at = b, t, at }

// checkHooks panics when any Linear of the model carries an Adapter hook,
// which this forward would otherwise silently skip.
func (f *Forward) checkHooks() {
	m := f.m
	hooked := m.LMHead.Adapter != nil
	for _, b := range m.Blocks {
		for _, l := range b.linears() {
			hooked = hooked || l.Adapter != nil
		}
	}
	for _, e := range m.Exits {
		hooked = hooked || e.Proj.Adapter != nil
	}
	if hooked {
		panic("nn: no-grad forward over a model with Linear.Adapter hooks; use the autograd forward")
	}
}

// RunTo runs the blocks from the residual's up to block to and returns the
// residual, block to's input, shape (B·T, dim): the hidden rows at block to.
func (f *Forward) RunTo(to int) *tensor.Tensor {
	if to < f.at || to > len(f.m.Blocks) {
		panic(fmt.Sprintf("nn: Forward.RunTo %d from block %d of %d", to, f.at, len(f.m.Blocks)))
	}
	for ; f.at < to; f.at++ {
		f.block(f.m.Blocks[f.at])
	}
	return &f.x.view
}

// block runs one transformer block over the residual in place:
// x += attn(norm1(x)); x += mlp(norm2(x)).
func (f *Forward) block(blk *Block) {
	cfg := f.m.Cfg
	rows, dim := f.b*f.t, cfg.Dim
	x := &f.x.view
	h := f.h.rows(rows, dim)
	q, k, v := f.q.rows(rows, dim), f.k.rows(rows, dim), f.v.rows(rows, dim)
	ctx, att := f.ctx.rows(rows, dim), f.att.rows(rows, dim)

	f.normRows(h, x, blk.Norm1)
	tensor.MatMulInto(q, h, blk.Attn.Wq.W.Data)
	tensor.MatMulInto(k, h, blk.Attn.Wk.W.Data)
	tensor.MatMulInto(v, h, blk.Attn.Wv.W.Data)
	hd := dim / cfg.Heads
	scale := float32(1 / math.Sqrt(float64(hd)))
	for b := 0; b < f.b; b++ {
		for lo := 0; lo < dim; lo += hd {
			base := b*f.t*dim + lo // the head's first element
			tensor.AttendHead(ctx.Data[base:], q.Data[base:], k.Data[base:], v.Data[base:],
				dim, f.t, hd, scale, f.kT, f.sc, nil)
		}
	}
	tensor.MatMulInto(att, ctx, blk.Attn.Wo.W.Data)
	x.AddInPlace(att)

	f.normRows(h, x, blk.Norm2)
	gate, up := f.gate.rows(rows, cfg.Hidden), f.up.rows(rows, cfg.Hidden)
	tensor.MatMulInto(gate, h, blk.MLP.Gate.W.Data)
	tensor.MatMulInto(up, h, blk.MLP.Up.W.Data)
	tensor.SiLU(gate.Data, gate.Data)
	gate.MulInPlace(up)
	tensor.MatMulInto(att, gate, blk.MLP.Down.W.Data)
	x.AddInPlace(att)
}

// Head returns the logits of head e for every row of the residual, shape
// (B·T, vocab): exit e, which reads block e's output, so blocks up to e+1
// must have run, or for e == Layers the final head, after every block.
func (f *Forward) Head(e int) *tensor.Tensor {
	L := len(f.m.Blocks)
	if e < 0 || e > L || f.at != min(e+1, L) {
		panic(fmt.Sprintf("nn: Forward.Head %d after %d of %d blocks", e, f.at, L))
	}
	norm, proj := f.m.Norm, f.m.LMHead
	if e < L {
		if len(f.m.Exits) == 0 {
			panic("nn: model built without exit heads")
		}
		norm, proj = f.m.Exits[e].Norm, f.m.Exits[e].Proj
	}
	rows := f.b * f.t
	h := f.h.rows(rows, f.m.Cfg.Dim)
	f.normRows(h, &f.x.view, norm)
	logits := f.logits.rows(rows, f.m.Cfg.Vocab)
	tensor.MatMulInto(logits, h, proj.W.Data)
	return logits
}

// Logits runs batch through every block and returns the final head's
// logits for every row: Embed, RunTo(Layers), Head(Layers).
func (f *Forward) Logits(batch [][]int) *tensor.Tensor {
	f.Embed(batch)
	f.RunTo(len(f.m.Blocks))
	return f.Head(len(f.m.Blocks))
}

// normRows writes n(x) into dst, every row, with inv as the rows' scratch.
func (f *Forward) normRows(dst, x *tensor.Tensor, n *RMSNorm) {
	if cap(f.inv) < x.Rows() {
		f.inv = make([]float32, x.Rows())
	}
	tensor.RMSNormRows(dst.Data, x.Data, n.Gain.Data.Data, n.Eps, f.inv[:x.Rows()])
}
