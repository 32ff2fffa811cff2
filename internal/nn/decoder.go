package nn

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"edgellm/internal/tensor"
)

// Decoder is an inference-only incremental decoder over a pooled contiguous
// KV arena. It decodes up to Slots() concurrent sequences: each sequence
// owns one arena slot (Acquire/Release) and StepBatch advances any subset of
// the active slots by one token, returning the final-head logits per
// sequence. Step is the single-sequence convenience wrapper (slot 0) that
// replaces the old per-sequence decoder.
//
// Batched execution is bitwise-identical to single-sequence decoding: every
// projection runs through the cache-blocked tensor.MatMulInto kernel, whose
// per-row accumulation order (ascending k, zero-skip) is exactly the order
// the scalar reference kernel (vecMat, in decoder_legacy_test.go) uses, and
// the attention/normalisation loops are per-slot scalar code. A sequence therefore produces the same logit bits
// whether it decodes alone, in a batch of any size, or at any GOMAXPROCS —
// the guarantee the determinism tests pin down.
//
// Steady-state decoding allocates nothing: KV rows are written in place into
// the arena, activations live in pooled scratch sized once at construction,
// and returned logit rows alias that scratch — they are valid only until the
// next Step/StepBatch call (copy them to retain).
type Decoder struct {
	m     *Model
	pool  *tensor.Pool
	arena *KVArena
	cap   int

	// Residual stream and attention score scratch, sized for cap rows.
	x      []float32 // (cap, dim) residual
	scores []float32 // (cap, maxSeq) per-slot attention scratch

	// Pooled matmul operands/results, viewed down to the live batch size.
	h, q, k, v, ctx, att batchBuf // (cap, dim)
	gate, up             batchBuf // (cap, hidden)
	mlp                  batchBuf // (cap, dim)
	logits               batchBuf // (cap, vocab)
	xBack                *tensor.Tensor

	rows  [][]float32 // reused StepBatch return slice
	seen  []bool      // duplicate-slot validation scratch
	tok1  [1]int      // Step's batch-of-1 arguments
	slot1 [1]int

	// Adapter state: the low-rank patch currently merged into the model
	// weights plus pristine copies for bitwise-exact restore (adapter.go).
	adapter      *Adapter
	savedWeights []savedWeight

	// Packed execution state (packed.go): when packed is non-nil, block
	// matmuls whose layer is packed run through tensor.MatMulPackedInto
	// with this decoder's tile-decode scratch.
	packed   *PackedModel
	pscratch *tensor.PackedScratch
}

// batchBuf pairs a pooled full-capacity backing tensor with a view header
// that is re-pointed to the first B rows each StepBatch — no per-call
// allocation, and the backing keeps its full length for Pool.Put.
type batchBuf struct {
	back *tensor.Tensor
	view tensor.Tensor
}

func newBatchBuf(pool *tensor.Pool, rows, cols int) batchBuf {
	back := pool.Get(rows, cols)
	return batchBuf{back: back, view: tensor.Tensor{Shape: []int{0, cols}}}
}

// rows returns a (b, cols) tensor aliasing the first b backing rows.
func (bb *batchBuf) rows(b int) *tensor.Tensor {
	cols := bb.view.Shape[1]
	bb.view.Data = bb.back.Data[:b*cols]
	bb.view.Shape[0] = b
	return &bb.view
}

func (bb *batchBuf) release(pool *tensor.Pool) {
	pool.Put(bb.back)
	bb.back = nil
}

// NewDecoder returns a single-sequence decoder over m (slot capacity 1, no
// pool), matching the pre-batching API: Reset, Step, Pos, Generate.
func NewDecoder(m *Model) *Decoder { return NewBatchDecoder(m, 1, nil) }

// NewBatchDecoder returns a decoder with the given slot capacity. All cache
// and scratch memory — the KV arena plus per-batch activations — is taken
// from pool up front (plain allocation when pool is nil) and returned by
// Close. Every slot starts free; Acquire claims one.
func NewBatchDecoder(m *Model, slots int, pool *tensor.Pool) *Decoder {
	if slots < 1 {
		panic(fmt.Sprintf("nn: decoder slot capacity %d must be ≥ 1", slots))
	}
	cfg := m.Cfg
	d := &Decoder{
		m:      m,
		pool:   pool,
		arena:  NewKVArena(pool, cfg.Layers, slots, cfg.MaxSeq, cfg.Dim),
		cap:    slots,
		x:      make([]float32, slots*cfg.Dim),
		scores: make([]float32, slots*cfg.MaxSeq),
		h:      newBatchBuf(pool, slots, cfg.Dim),
		q:      newBatchBuf(pool, slots, cfg.Dim),
		k:      newBatchBuf(pool, slots, cfg.Dim),
		v:      newBatchBuf(pool, slots, cfg.Dim),
		ctx:    newBatchBuf(pool, slots, cfg.Dim),
		att:    newBatchBuf(pool, slots, cfg.Dim),
		gate:   newBatchBuf(pool, slots, cfg.Hidden),
		up:     newBatchBuf(pool, slots, cfg.Hidden),
		mlp:    newBatchBuf(pool, slots, cfg.Dim),
		logits: newBatchBuf(pool, slots, cfg.Vocab),
		rows:   make([][]float32, 0, slots),
		seen:   make([]bool, slots),
	}
	return d
}

// Config returns the model configuration the decoder serves.
func (d *Decoder) Config() Config { return d.m.Cfg }

// Slots returns the decoder's slot capacity.
func (d *Decoder) Slots() int { return d.cap }

// ActiveSlots returns the number of currently acquired slots.
func (d *Decoder) ActiveSlots() int { return d.arena.InUse() }

// Acquire claims the lowest free KV slot for a new sequence; it errors when
// the arena is full (the admission signal — reject, don't crash).
func (d *Decoder) Acquire() (int, error) { return d.arena.Acquire() }

// Release returns a slot to the free set; its cache region is reused as-is
// by the next Acquire.
func (d *Decoder) Release(slot int) { d.arena.Release(slot) }

// ArenaCapBytes returns the fixed KV arena backing size in bytes.
func (d *Decoder) ArenaCapBytes() int64 { return d.arena.CapBytes() }

// ArenaActiveBytes returns the bytes of live cache entries across acquired
// slots; zero once every sequence has left.
func (d *Decoder) ArenaActiveBytes() int64 { return d.arena.ActiveBytes() }

// Reset frees every slot for a fresh start (single-sequence compatibility:
// Step after Reset begins a new sequence in slot 0).
func (d *Decoder) Reset() { d.arena.ReleaseAll() }

// Pos returns slot 0's decoded-token count — the single-sequence position.
func (d *Decoder) Pos() int { return d.arena.Len(0) }

// PosAt returns the decoded-token count of one slot.
func (d *Decoder) PosAt(slot int) int { return d.arena.Len(slot) }

// Close returns the arena and all scratch to the pool. The decoder must not
// be used afterwards.
func (d *Decoder) Close() {
	d.restoreBase() // leave the (possibly shared) model weights pristine
	d.arena.Close()
	for _, bb := range []*batchBuf{&d.h, &d.q, &d.k, &d.v, &d.ctx, &d.att, &d.gate, &d.up, &d.mlp, &d.logits} {
		bb.release(d.pool)
	}
}

// Step consumes one token on slot 0 (acquiring it when free) and returns
// the final-head logits for its position. The row aliases internal scratch:
// valid until the next Step/StepBatch. It returns an error — not a panic —
// on a MaxSeq or vocabulary violation.
func (d *Decoder) Step(token int) ([]float32, error) {
	if !d.arena.used[0] {
		d.arena.used[0] = true
		d.arena.lens[0] = 0
		d.arena.inUse++
	}
	d.tok1[0], d.slot1[0] = token, 0
	rows, err := d.StepBatch(d.tok1[:], d.slot1[:])
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// StepBatch feeds tokens[i] to slots[i] for every i and returns the
// final-head logit row per sequence, in input order. All arguments are
// validated before any state changes, so a rejected batch leaves every
// cache intact: errors cover length mismatch, unacquired or duplicate
// slots, out-of-range tokens, and slots at MaxSeq. Returned rows alias
// internal scratch and are valid until the next Step/StepBatch.
func (d *Decoder) StepBatch(tokens, slots []int) ([][]float32, error) {
	B := len(tokens)
	if B == 0 || B != len(slots) {
		return nil, fmt.Errorf("nn: StepBatch needs matching non-empty tokens/slots, got %d/%d", B, len(slots))
	}
	m := d.m
	for i, s := range slots {
		if s < 0 || s >= d.cap {
			d.clearSeen(slots[:i])
			return nil, fmt.Errorf("nn: StepBatch slot %d out of range [0,%d)", s, d.cap)
		}
		if !d.arena.used[s] {
			d.clearSeen(slots[:i])
			return nil, fmt.Errorf("nn: StepBatch slot %d is not acquired", s)
		}
		if d.seen[s] {
			d.clearSeen(slots[:i])
			return nil, fmt.Errorf("nn: StepBatch slot %d appears twice", s)
		}
		d.seen[s] = true
		if tok := tokens[i]; tok < 0 || tok >= m.Cfg.Vocab {
			d.clearSeen(slots[:i+1])
			return nil, fmt.Errorf("nn: StepBatch token %d out of range [0,%d)", tok, m.Cfg.Vocab)
		}
		if d.arena.lens[s] >= m.Cfg.MaxSeq {
			d.clearSeen(slots[:i+1])
			return nil, fmt.Errorf("nn: StepBatch slot %d position %d exceeds MaxSeq %d", s, d.arena.lens[s], m.Cfg.MaxSeq)
		}
	}
	d.clearSeen(slots)

	dim := m.Cfg.Dim
	heads := m.Cfg.Heads
	hd := dim / heads
	scale := float32(1 / math.Sqrt(float64(hd)))

	// Embedding: x[i] = tokEmb[token] + posEmb[position of slot i].
	for i, tok := range tokens {
		xRow := d.x[i*dim : (i+1)*dim]
		copy(xRow, m.TokEmb.W.Data.Row(tok))
		posRow := m.PosEmb.W.Data.Row(d.arena.lens[slots[i]])
		for j := range xRow {
			xRow[j] += posRow[j]
		}
	}

	hV := d.h.rows(B)
	qV, kV, vV := d.q.rows(B), d.k.rows(B), d.v.rows(B)
	ctxV, attV := d.ctx.rows(B), d.att.rows(B)
	gateV, upV := d.gate.rows(B), d.up.rows(B)
	mlpV := d.mlp.rows(B)
	logitsV := d.logits.rows(B)

	for l, blk := range m.Blocks {
		// Attention sub-block: h = norm1(x); q,k,v = h·W; cache k,v;
		// per-slot causal attention over the slot's arena region.
		d.rmsnormRows(B, hV.Data, blk.Norm1.Gain.Data.Data, blk.Norm1.Eps)
		d.mm(qV, hV, blk.Attn.Wq.W.Data, l, wmWq)
		d.mm(kV, hV, blk.Attn.Wk.W.Data, l, wmWk)
		d.mm(vV, hV, blk.Attn.Wv.W.Data, l, wmWv)
		for i, s := range slots {
			p := d.arena.lens[s]
			copy(d.arena.kRow(l, s, p), kV.Data[i*dim:(i+1)*dim])
			copy(d.arena.vRow(l, s, p), vV.Data[i*dim:(i+1)*dim])
		}
		d.attendAll(l, B, slots, heads, hd, scale, qV.Data, ctxV.Data)
		d.mm(attV, ctxV, blk.Attn.Wo.W.Data, l, wmWo)
		addRows(d.x, attV.Data)

		// MLP sub-block: x += down( SiLU(h2·gate) ⊙ (h2·up) ).
		d.rmsnormRows(B, hV.Data, blk.Norm2.Gain.Data.Data, blk.Norm2.Eps)
		d.mm(gateV, hV, blk.MLP.Gate.W.Data, l, wmGate)
		d.mm(upV, hV, blk.MLP.Up.W.Data, l, wmUp)
		siluMul(gateV.Data, upV.Data)
		d.mm(mlpV, gateV, blk.MLP.Down.W.Data, l, wmDown)
		addRows(d.x, mlpV.Data)
	}

	d.rmsnormRows(B, hV.Data, m.Norm.Gain.Data.Data, m.Norm.Eps)
	tensor.MatMulInto(logitsV, hV, m.LMHead.W.Data)

	for _, s := range slots {
		d.arena.lens[s]++
	}
	d.rows = d.rows[:0]
	vocab := m.Cfg.Vocab
	for i := range tokens {
		d.rows = append(d.rows, logitsV.Data[i*vocab:(i+1)*vocab])
	}
	return d.rows, nil
}

func (d *Decoder) clearSeen(slots []int) {
	for _, s := range slots {
		d.seen[s] = false
	}
}

// attendSlot runs causal attention for batch row i / slot s of layer l: the
// exact scalar loop of the single-sequence decoder, reading keys/values from
// the slot's contiguous arena region and writing the context row in place.
func (d *Decoder) attendSlot(l, i, s, heads, hd int, scale float32, q, ctx []float32) {
	dim := heads * hd
	T := d.arena.lens[s] + 1 // cached tokens plus the one just written
	scores := d.scores[i*d.m.Cfg.MaxSeq : i*d.m.Cfg.MaxSeq+T]
	ctxRow := ctx[i*dim : (i+1)*dim]
	for j := range ctxRow {
		ctxRow[j] = 0
	}
	qRow := q[i*dim : (i+1)*dim]
	for hI := 0; hI < heads; hI++ {
		lo := hI * hd
		maxS := float32(math.Inf(-1))
		for t := 0; t < T; t++ {
			var dot float32
			kt := d.arena.kRow(l, s, t)[lo : lo+hd]
			qh := qRow[lo : lo+hd]
			for j := 0; j < hd; j++ {
				dot += qh[j] * kt[j]
			}
			dot *= scale
			scores[t] = dot
			if dot > maxS {
				maxS = dot
			}
		}
		var sum float64
		for t := 0; t < T; t++ {
			e := math.Exp(float64(scores[t] - maxS))
			scores[t] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for t := 0; t < T; t++ {
			w := scores[t] * inv
			vt := d.arena.vRow(l, s, t)[lo : lo+hd]
			out := ctxRow[lo : lo+hd]
			for j := 0; j < hd; j++ {
				out[j] += w * vt[j]
			}
		}
	}
}

// rmsnormRows applies RMSNorm row-by-row: h[i] = norm(x[i])·gain. Per-row
// arithmetic is identical to the reference rmsnormVec (decoder_legacy_test.go).
func (d *Decoder) rmsnormRows(B int, h, gain []float32, eps float32) {
	n := len(gain)
	for i := 0; i < B; i++ {
		xRow := d.x[i*n : (i+1)*n]
		hRow := h[i*n : (i+1)*n]
		var ss float64
		for _, v := range xRow {
			ss += float64(v) * float64(v)
		}
		inv := float32(1 / math.Sqrt(ss/float64(n)+float64(eps)))
		for j, v := range xRow {
			hRow[j] = v * inv * gain[j]
		}
	}
}

// slotParallelThreshold is the per-StepBatch attention MAC count above which
// the per-slot loops fan out to worker goroutines. Slots are independent
// (disjoint arena regions, disjoint scratch rows), so the fan-out cannot
// change results at any GOMAXPROCS.
const slotParallelThreshold = 1 << 15

// attendAll runs attendSlot for every batch row of layer l, fanning out to
// worker goroutines over contiguous row chunks when the attention work is
// large enough. The serial path allocates nothing.
func (d *Decoder) attendAll(l, B int, slots []int, heads, hd int, scale float32, q, ctx []float32) {
	workers := 1
	if B > 1 {
		var macs int
		for _, s := range slots {
			macs += 2 * (d.arena.lens[s] + 1) * d.m.Cfg.Dim
		}
		if macs >= slotParallelThreshold {
			workers = runtime.GOMAXPROCS(0)
			if workers > B {
				workers = B
			}
		}
	}
	if workers <= 1 {
		for i, s := range slots {
			d.attendSlot(l, i, s, heads, hd, scale, q, ctx)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (B + workers - 1) / workers
	for lo := 0; lo < B; lo += chunk {
		hi := lo + chunk
		if hi > B {
			hi = B
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				d.attendSlot(l, i, slots[i], heads, hd, scale, q, ctx)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// addRows adds src's first len(src) elements into x element-wise.
func addRows(x, src []float32) {
	for j, v := range src {
		x[j] += v
	}
}

// siluMul fuses the SwiGLU gate in place: gate[j] = SiLU(gate[j])·up[j].
func siluMul(gate, up []float32) {
	for j := range gate {
		s := float32(1 / (1 + math.Exp(-float64(gate[j]))))
		gate[j] = gate[j] * s * up[j]
	}
}

// Generate feeds the prompt through the cache and then samples MaxTokens
// continuations on slot 0, returning prompt+continuation. It mirrors
// nn.Generate's sampling semantics but runs in O(tokens · context) instead
// of O(tokens · context²). It resets the decoder, so it must not be mixed
// with concurrent batched use; the serve scheduler is the multi-stream path.
func (d *Decoder) Generate(prompt []int, cfg SampleConfig) ([]int, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(prompt) == 0 {
		return nil, fmt.Errorf("nn: empty prompt")
	}
	if len(prompt)+cfg.MaxTokens > d.m.Cfg.MaxSeq {
		return nil, fmt.Errorf("nn: prompt %d + %d tokens exceeds MaxSeq %d (KV cache cannot slide)",
			len(prompt), cfg.MaxTokens, d.m.Cfg.MaxSeq)
	}
	d.Reset()
	g := tensor.NewRNG(cfg.Seed)
	var logits []float32
	var err error
	for _, tok := range prompt {
		if logits, err = d.Step(tok); err != nil {
			return nil, err
		}
	}
	out := append([]int(nil), prompt...)
	for i := 0; i < cfg.MaxTokens; i++ {
		next := sampleToken(logits, cfg, g)
		out = append(out, next)
		if i == cfg.MaxTokens-1 {
			break
		}
		if logits, err = d.Step(next); err != nil {
			return nil, err
		}
	}
	return out, nil
}
