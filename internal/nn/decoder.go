package nn

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"

	"edgellm/internal/tensor"
)

// PrefillRows is the prompt-row budget of one batched step: how many rows
// beyond one per slot a decoder's scratch holds, and so the longest run of
// prompt tokens the serve scheduler and Generate hand StepBatch at once. 16
// is the knee of the per-row cost on the decode-bench model (EXPERIMENTS.md):
// the weight stream (or packed tile decode) is shared by every row of a step,
// and past 16 rows a longer step only delays the streams decoding beside it.
const PrefillRows = 16

// ErrBadBatch is wrapped by every error StepBatch returns for arguments it
// rejects. A rejected batch has changed no state.
var ErrBadBatch = errors.New("nn: invalid StepBatch arguments")

// Decoder is an inference-only incremental decoder over a pooled contiguous
// KV arena. It decodes up to Slots() concurrent sequences: each sequence
// owns one arena slot (Acquire/Release) and StepBatch advances any subset of
// the active slots, each by a run of one or more tokens, returning the
// final-head logits after each run's last token. Step is the single-sequence
// convenience wrapper (slot 0) that replaces the old per-sequence decoder.
//
// Batched execution is bitwise-identical to single-sequence decoding: every
// projection runs through the cache-blocked tensor.MatMulInto kernel, whose
// per-row accumulation order (ascending k, zero-skip) is exactly the order
// the scalar reference kernel (vecMat, in decoder_legacy_test.go) uses and
// does not depend on how many rows the matrix has, and the
// attention/normalisation loops are per-row scalar code. A sequence therefore
// produces the same logit bits whether it decodes alone, in a batch of any
// size, a token or a run of tokens at a time, or at any GOMAXPROCS — the
// guarantee the determinism tests pin down.
//
// Steady-state decoding allocates nothing: KV rows are written in place into
// the arena, activations live in pooled scratch sized once at construction,
// and returned logit rows alias that scratch — they are valid only until the
// next Step/StepBatch call (copy them to retain).
type Decoder struct {
	m      *Model
	pool   *tensor.Pool
	arena  *KVArena
	cap    int // slots
	rowCap int // rows one step may carry: cap + PrefillRows

	// Residual stream and attention score scratch, sized for rowCap rows.
	x      []float32 // (rowCap, dim) residual
	scores []float32 // (rowCap, maxSeq) per-row attention scratch

	// Pooled matmul operands/results, viewed down to the live row count.
	h, q, k, v, ctx, att batchBuf // (rowCap, dim)
	gate, up             batchBuf // (rowCap, hidden)
	mlp                  batchBuf // (rowCap, dim)
	logits               batchBuf // (cap, vocab): one row per run

	rows  [][]float32 // reused StepBatch return slice
	seen  []bool      // slot-already-in-a-run validation scratch
	pos   []int       // cache position of each row of the step
	last  []int       // index of each run's last row
	tok1  [1]int      // Step's batch-of-1 arguments
	slot1 [1]int

	// Adapter state (adapter.go): side[l][wi] is the adapter's pair for layer
	// l's weight wi, nil where it has none; row len(Blocks), column 0 is the
	// LM head. sideXA and sideOut hold x·A and (x·A)·B for one projection.
	adapter         *Adapter
	side            [][numBlockWeights]*AdapterPair
	sideXA, sideOut batchBuf // (rowCap, rank), (rowCap, widest target)

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
func (bb *batchBuf) rows(b int) *tensor.Tensor { return bb.shaped(b, bb.view.Shape[1]) }

// shaped returns a (b, cols) tensor aliasing the front of the backing, for
// scratch whose row width changes between uses.
func (bb *batchBuf) shaped(b, cols int) *tensor.Tensor {
	bb.view.Data = bb.back.Data[:b*cols]
	bb.view.Shape[0], bb.view.Shape[1] = b, cols
	return &bb.view
}

// grow makes the backing hold rows×cols floats, trading a smaller one in.
func (bb *batchBuf) grow(pool *tensor.Pool, rows, cols int) {
	have := 0
	if bb.back != nil {
		have = len(bb.back.Data)
	}
	if rows*cols > have {
		pool.Put(bb.back)
		*bb = newBatchBuf(pool, rows, cols)
	}
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
	rows := slots + PrefillRows
	d := &Decoder{
		m:      m,
		pool:   pool,
		arena:  NewKVArena(pool, cfg.Layers, slots, cfg.MaxSeq, cfg.Dim),
		cap:    slots,
		rowCap: rows,
		x:      make([]float32, rows*cfg.Dim),
		scores: make([]float32, rows*cfg.MaxSeq),
		h:      newBatchBuf(pool, rows, cfg.Dim),
		q:      newBatchBuf(pool, rows, cfg.Dim),
		k:      newBatchBuf(pool, rows, cfg.Dim),
		v:      newBatchBuf(pool, rows, cfg.Dim),
		ctx:    newBatchBuf(pool, rows, cfg.Dim),
		att:    newBatchBuf(pool, rows, cfg.Dim),
		gate:   newBatchBuf(pool, rows, cfg.Hidden),
		up:     newBatchBuf(pool, rows, cfg.Hidden),
		mlp:    newBatchBuf(pool, rows, cfg.Dim),
		logits: newBatchBuf(pool, slots, cfg.Vocab),
		rows:   make([][]float32, 0, slots),
		seen:   make([]bool, slots),
		pos:    make([]int, rows),
		last:   make([]int, 0, slots),
		side:   make([][numBlockWeights]*AdapterPair, len(m.Blocks)+1),
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
	d.arena.Close()
	for _, bb := range []*batchBuf{&d.h, &d.q, &d.k, &d.v, &d.ctx, &d.att, &d.gate, &d.up, &d.mlp, &d.logits, &d.sideXA, &d.sideOut} {
		bb.release(d.pool)
	}
}

// Step consumes one token on slot 0 (acquiring it when free) and returns
// the final-head logits for its position. The row aliases internal scratch:
// valid until the next Step/StepBatch. It returns an error — not a panic —
// on a MaxSeq or vocabulary violation.
func (d *Decoder) Step(token int) ([]float32, error) {
	if !d.arena.used[0] {
		d.arena.claim(0)
	}
	d.tok1[0], d.slot1[0] = token, 0
	rows, err := d.StepBatch(d.tok1[:], d.slot1[:])
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// StepBatch feeds tokens[i] to slots[i] for every row i and returns one
// final-head logit row per run, in input order. A run is a maximal stretch of
// adjacent rows naming the same slot: row j of a run sits at cache position
// len+j and attends to the slot's cache plus the run's rows up to itself, so
// a run of n tokens leaves the slot exactly where n single-token steps would,
// and its logits row — computed for the run's last token only — is bitwise
// the row the last of those steps would return. With every slot distinct
// (every run of length 1) this is one token and one logits row per sequence.
//
// All arguments are validated before any state changes, so a rejected batch
// leaves every cache intact. The errors wrap ErrBadBatch: length mismatch,
// more rows than Slots()+PrefillRows, unacquired slots, a slot in two
// non-adjacent runs, out-of-range tokens, and runs that would pass MaxSeq.
// Returned rows alias internal scratch and are valid until the next
// Step/StepBatch.
func (d *Decoder) StepBatch(tokens, slots []int) ([][]float32, error) {
	B := len(tokens)
	if B == 0 || B != len(slots) {
		return nil, fmt.Errorf("%w: need matching non-empty tokens/slots, got %d/%d", ErrBadBatch, B, len(slots))
	}
	if B > d.rowCap {
		return nil, fmt.Errorf("%w: %d rows exceed the %d a step holds (%d slots + %d)", ErrBadBatch, B, d.rowCap, d.cap, PrefillRows)
	}
	if err := d.planRuns(tokens, slots); err != nil {
		return nil, err
	}
	m := d.m
	R := len(d.last)

	dim := m.Cfg.Dim
	heads := m.Cfg.Heads
	hd := dim / heads
	scale := float32(1 / math.Sqrt(float64(hd)))

	// Embedding: x[i] = tokEmb[token] + posEmb[position of row i].
	for i, tok := range tokens {
		xRow := d.x[i*dim : (i+1)*dim]
		copy(xRow, m.TokEmb.W.Data.Row(tok))
		posRow := m.PosEmb.W.Data.Row(d.pos[i])
		for j := range xRow {
			xRow[j] += posRow[j]
		}
	}

	hV := d.h.rows(B)
	qV, kV, vV := d.q.rows(B), d.k.rows(B), d.v.rows(B)
	ctxV, attV := d.ctx.rows(B), d.att.rows(B)
	gateV, upV := d.gate.rows(B), d.up.rows(B)
	mlpV := d.mlp.rows(B)

	for l, blk := range m.Blocks {
		// Attention sub-block: h = norm1(x); q,k,v = h·W; cache k,v for
		// every row, then per-row causal attention over the slot's arena
		// region up to the row's own position.
		d.rmsnormRows(B, hV.Data, blk.Norm1.Gain.Data.Data, blk.Norm1.Eps)
		d.mm(qV, hV, blk.Attn.Wq.W.Data, l, wmWq)
		d.mm(kV, hV, blk.Attn.Wk.W.Data, l, wmWk)
		d.mm(vV, hV, blk.Attn.Wv.W.Data, l, wmWv)
		for i, s := range slots {
			p := d.pos[i]
			d.arena.putKey(l, s, p, kV.Data[i*dim:(i+1)*dim])
			copy(d.arena.values(l, s)[p*dim:(p+1)*dim], vV.Data[i*dim:(i+1)*dim])
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

	// Final norm and LM head over each run's last row only, gathered into
	// the first R rows of h: interior prompt rows never reach the head.
	hV, logitsV := d.h.rows(R), d.logits.rows(R)
	for r, i := range d.last {
		rmsnormRow(hV.Data[r*dim:(r+1)*dim], d.x[i*dim:(i+1)*dim], m.Norm.Gain.Data.Data, m.Norm.Eps)
	}
	tensor.MatMulInto(logitsV, hV, m.LMHead.W.Data)
	d.addSide(logitsV, hV, len(m.Blocks), 0)

	d.rows = d.rows[:0]
	vocab := m.Cfg.Vocab
	prev := -1
	for r, i := range d.last {
		d.arena.advance(slots[i], i-prev)
		prev = i
		d.rows = append(d.rows, logitsV.Data[r*vocab:(r+1)*vocab])
	}
	return d.rows, nil
}

// planRuns validates one step's rows and records each row's cache position
// in d.pos and each run's last row in d.last. On error nothing but that
// scratch has been written.
func (d *Decoder) planRuns(tokens, slots []int) (err error) {
	cfg := d.m.Cfg
	d.last = d.last[:0]
	marked := 0 // slots[:marked] are in range and may have seen set
	for i, s := range slots {
		switch {
		case i > 0 && s == slots[i-1]:
			d.pos[i] = d.pos[i-1] + 1
		case s < 0 || s >= d.cap:
			err = fmt.Errorf("%w: slot %d out of range [0,%d)", ErrBadBatch, s, d.cap)
		case !d.arena.used[s]:
			err = fmt.Errorf("%w: slot %d is not acquired", ErrBadBatch, s)
		case d.seen[s]:
			err = fmt.Errorf("%w: slot %d appears in two runs", ErrBadBatch, s)
		default:
			d.seen[s] = true
			d.pos[i] = d.arena.lens[s]
			if i > 0 {
				d.last = append(d.last, i-1)
			}
		}
		if err != nil {
			break
		}
		marked = i + 1
		if tok := tokens[i]; tok < 0 || tok >= cfg.Vocab {
			err = fmt.Errorf("%w: token %d out of range [0,%d)", ErrBadBatch, tok, cfg.Vocab)
		} else if d.pos[i] >= cfg.MaxSeq {
			err = fmt.Errorf("%w: slot %d position %d exceeds MaxSeq %d", ErrBadBatch, s, d.pos[i], cfg.MaxSeq)
		}
		if err != nil {
			break
		}
	}
	d.last = append(d.last, len(slots)-1)
	for _, s := range slots[:marked] {
		d.seen[s] = false
	}
	return err
}

// attendSlot runs causal attention for batch row i / slot s of layer l over
// the slot's arena region, writing the context row in place. Per head it is
// two tensor.SumCols calls: the scores with positions as lanes over the
// transposed key tiles, then the context with head dimensions as lanes over
// the value rows. Each score and context element is the legacy scalar
// loop's ascending sum from +0, product and add each rounded; SumCols' zero
// skip makes a difference only where a key or value element is ±Inf or NaN.
func (d *Decoder) attendSlot(l, i, s, heads, hd int, scale float32, q, ctx []float32) {
	dim := heads * hd
	T := d.pos[i] + 1 // the slot's cache and its run, up to and including this row
	maxSeq := d.m.Cfg.MaxSeq
	scratch := d.scores[i*maxSeq : (i+1)*maxSeq]
	scores := scratch[:T]
	ctxRow := ctx[i*dim : (i+1)*dim]
	qRow := q[i*dim : (i+1)*dim]
	values := d.arena.values(l, s)
	for lo := 0; lo < dim; lo += hd {
		for p0 := 0; p0 < T; {
			keys, _, w := d.arena.keyTile(l, s, p0)
			// Whole groups of 8 lanes: the positions the rounding adds
			// past T hold stale or unwritten keys, and their scores are
			// never read.
			n := min((T-p0+7)&^7, w)
			tensor.SumCols(scratch[p0:p0+n], qRow[lo:lo+hd], 1, keys[lo*w:], w, hd)
			p0 += w
		}
		maxS := float32(math.Inf(-1))
		for t, sc := range scores {
			sc *= scale
			scores[t] = sc
			if sc > maxS {
				maxS = sc
			}
		}
		var sum float64
		for t, sc := range scores {
			e := math.Exp(float64(sc - maxS))
			scores[t] = float32(e)
			sum += e
		}
		inv := float32(1 / sum)
		for t := range scores {
			scores[t] *= inv
		}
		tensor.SumCols(ctxRow[lo:lo+hd], scores, 1, values[lo:], dim, T)
	}
}

// rmsnormRows applies RMSNorm row-by-row: h[i] = norm(x[i])·gain.
func (d *Decoder) rmsnormRows(B int, h, gain []float32, eps float32) {
	n := len(gain)
	for i := 0; i < B; i++ {
		rmsnormRow(h[i*n:(i+1)*n], d.x[i*n:(i+1)*n], gain, eps)
	}
}

// rmsnormRow is one row of RMSNorm, arithmetic identical to the reference
// rmsnormVec (decoder_legacy_test.go).
func rmsnormRow(hRow, xRow, gain []float32, eps float32) {
	var ss float64
	for _, v := range xRow {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(gain))+float64(eps)))
	for j, v := range xRow {
		hRow[j] = v * inv * gain[j]
	}
}

// slotParallelThreshold is the per-StepBatch attention MAC count above which
// the per-row loops fan out to worker goroutines. Rows are independent (the
// arena is only read here — every row's K/V was written before — and scratch
// rows are disjoint), so the fan-out cannot change results at any GOMAXPROCS.
// About a millisecond of the column-lane loop (EXPERIMENTS.md, fan-out
// thresholds): back to back two chunks win from 2^17, but inside a step the
// second P has parked between fan-outs, and batch-8 and 16-row prefill steps
// whose attention calls reach 2^22 measured no faster fanned out than left
// serial.
const slotParallelThreshold = 1 << 22

// attendAll runs attendSlot for every batch row of layer l, fanning out to
// worker goroutines over contiguous row chunks when the attention work is
// large enough. The serial path allocates nothing.
func (d *Decoder) attendAll(l, B int, slots []int, heads, hd int, scale float32, q, ctx []float32) {
	workers := 1
	if B > 1 {
		var macs int
		for _, p := range d.pos[:B] {
			macs += 2 * (p + 1) * d.m.Cfg.Dim
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

// Generate feeds the prompt through the cache, PrefillRows tokens a step, and
// then samples MaxTokens continuations on slot 0 (SampleLogits per token),
// returning prompt+continuation. It resets the decoder, so it must not be
// mixed with concurrent batched use; the serve scheduler is the multi-stream
// path.
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
	d.arena.claim(0)
	g := tensor.NewRNG(cfg.Seed)
	var logits []float32
	var slot0 [PrefillRows]int
	for rest := prompt; len(rest) > 0; {
		n := min(len(rest), PrefillRows)
		rows, err := d.StepBatch(rest[:n], slot0[:n])
		if err != nil {
			return nil, err
		}
		logits, rest = rows[0], rest[n:]
	}
	var err error
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
