package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"edgellm/internal/tensor"
)

// legacyDecoder is a copy of the pre-arena single-sequence decoder
// (per-layer [][][]float32 caches, per-token appends, scalar vecMat
// projections). The batched arena decoder must reproduce its logits bit for
// bit — this file is the proof that the refactor changed the memory layout
// and batching, not the arithmetic. Its one addition is the scalar
// definition of the adapter side path (proj), the reference the decoder's
// batched side path is held to.
type legacyDecoder struct {
	m      *Model
	pos    int
	kCache [][][]float32
	vCache [][][]float32

	side  map[*tensor.Tensor]AdapterPair // adapted weight → its factor pair
	scale float32                        // alpha/rank
}

// newLegacyDecoder returns a legacy decoder over m under adapter a (nil: the
// base model). a must fit m.
func newLegacyDecoder(m *Model, a *Adapter) *legacyDecoder {
	d := &legacyDecoder{m: m}
	if a != nil {
		d.side, d.scale = make(map[*tensor.Tensor]AdapterPair), a.alpha/float32(a.rank)
		for _, p := range a.pairs {
			w, _, _, err := m.adapterSite(p.Target)
			if err != nil {
				panic(err)
			}
			d.side[w] = p
		}
	}
	d.reset()
	return d
}

// proj is y = x·W + (alpha/rank)·((x·A)·B): the scalar side path.
func (d *legacyDecoder) proj(x []float32, w *tensor.Tensor) []float32 {
	y := vecMat(x, w)
	if p, ok := d.side[w]; ok {
		u := vecMat(vecMat(x, p.A), p.B)
		for j := range y {
			y[j] += float32(d.scale * u[j])
		}
	}
	return y
}

func (d *legacyDecoder) reset() {
	L := len(d.m.Blocks)
	d.pos = 0
	d.kCache = make([][][]float32, L)
	d.vCache = make([][][]float32, L)
}

func (d *legacyDecoder) step(token int) []float32 {
	m := d.m
	dim := m.Cfg.Dim
	heads := m.Cfg.Heads
	hd := dim / heads
	scale := float32(1 / math.Sqrt(float64(hd)))

	x := make([]float32, dim)
	copy(x, m.TokEmb.W.Data.Row(token))
	posRow := m.PosEmb.W.Data.Row(d.pos)
	for i := range x {
		x[i] += posRow[i]
	}

	for l, blk := range m.Blocks {
		h := rmsnormVec(x, blk.Norm1.Gain.Data.Data, blk.Norm1.Eps)
		q := d.proj(h, blk.Attn.Wq.W.Data)
		k := d.proj(h, blk.Attn.Wk.W.Data)
		v := d.proj(h, blk.Attn.Wv.W.Data)
		d.kCache[l] = append(d.kCache[l], k)
		d.vCache[l] = append(d.vCache[l], v)

		ctx := make([]float32, dim)
		T := len(d.kCache[l])
		scores := make([]float32, T)
		for hI := 0; hI < heads; hI++ {
			lo := hI * hd
			maxS := float32(math.Inf(-1))
			for t := 0; t < T; t++ {
				var dot float32
				kt := d.kCache[l][t][lo : lo+hd]
				qh := q[lo : lo+hd]
				for i := 0; i < hd; i++ {
					dot += qh[i] * kt[i]
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
				vt := d.vCache[l][t][lo : lo+hd]
				out := ctx[lo : lo+hd]
				for i := 0; i < hd; i++ {
					out[i] += w * vt[i]
				}
			}
		}
		att := d.proj(ctx, blk.Attn.Wo.W.Data)
		for i := range x {
			x[i] += att[i]
		}

		h2 := rmsnormVec(x, blk.Norm2.Gain.Data.Data, blk.Norm2.Eps)
		gate := d.proj(h2, blk.MLP.Gate.W.Data)
		up := d.proj(h2, blk.MLP.Up.W.Data)
		for i := range gate {
			s := float32(1 / (1 + math.Exp(-float64(gate[i]))))
			gate[i] = gate[i] * s * up[i]
		}
		down := d.proj(gate, blk.MLP.Down.W.Data)
		for i := range x {
			x[i] += down[i]
		}
	}

	final := rmsnormVec(x, m.Norm.Gain.Data.Data, m.Norm.Eps)
	logits := d.proj(final, m.LMHead.W.Data)
	d.pos++
	return logits
}

func rowsBitsEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("%s: element %d differs bitwise: %v vs %v", name, j, got[j], want[j])
		}
	}
}

// TestDecoderBitwiseMatchesLegacyStep pins the tentpole guarantee: the
// arena-backed batch-of-1 path produces exactly the legacy decoder's bits,
// including across a Reset.
func TestDecoderBitwiseMatchesLegacyStep(t *testing.T) {
	m := tinyModel(80)
	legacy := newLegacyDecoder(m, nil)
	d := NewDecoder(m)
	seq := []int{3, 1, 4, 1, 5, 9, 2, 6}
	for pos, tok := range seq {
		got := mustStep(t, d, tok)
		rowsBitsEqual(t, "step", got, legacy.step(tok))
		if d.Pos() != pos+1 {
			t.Fatalf("pos %d vs %d", d.Pos(), pos+1)
		}
	}
	legacy.reset()
	d.Reset()
	for _, tok := range []int{7, 7, 0} {
		rowsBitsEqual(t, "post-reset step", mustStep(t, d, tok), legacy.step(tok))
	}
}

// TestDecoderBatchMatchesIndependentDecoders decodes four sequences through
// one batched decoder — with streams joining and leaving mid-run — and
// asserts every logit row is bitwise identical to four independent
// single-sequence decoders.
func TestDecoderBatchMatchesIndependentDecoders(t *testing.T) {
	m := tinyModel(81)
	pool := tensor.NewPool()
	batch := NewBatchDecoder(m, 4, pool)
	defer batch.Close()

	seqs := [][]int{
		{1, 2, 3, 4, 5, 6},
		{9, 8, 7, 6, 5},
		{2, 4, 6, 8},
		{11, 12, 13, 14, 15, 16, 1},
	}
	// joinAt staggers admissions so batch membership churns mid-run;
	// sequence i joins at global step i.
	solo := make([]*legacyDecoder, len(seqs))
	for i := range seqs {
		solo[i] = newLegacyDecoder(m, nil)
	}
	slotOf := make([]int, len(seqs))
	fed := make([]int, len(seqs))
	for i := range slotOf {
		slotOf[i] = -1
	}
	for step := 0; ; step++ {
		var tokens, slots []int
		var streams []int
		for i, seq := range seqs {
			if step >= i && fed[i] < len(seq) {
				if slotOf[i] == -1 {
					s, err := batch.Acquire()
					if err != nil {
						t.Fatal(err)
					}
					slotOf[i] = s
				}
				tokens = append(tokens, seq[fed[i]])
				slots = append(slots, slotOf[i])
				streams = append(streams, i)
			}
		}
		if len(tokens) == 0 {
			break
		}
		rows, err := batch.StepBatch(tokens, slots)
		if err != nil {
			t.Fatal(err)
		}
		for bi, i := range streams {
			want := solo[i].step(seqs[i][fed[i]])
			rowsBitsEqual(t, "batched stream", rows[bi], want)
			fed[i]++
			if fed[i] == len(seqs[i]) {
				batch.Release(slotOf[i]) // leave mid-run; slot is reusable
				slotOf[i] = -1
			}
		}
	}
	if batch.ActiveSlots() != 0 || batch.ArenaActiveBytes() != 0 {
		t.Fatalf("all streams left but %d slots / %d bytes active",
			batch.ActiveSlots(), batch.ArenaActiveBytes())
	}
}

// TestDecoderDeterminismAcrossGOMAXPROCS runs a batched decode serially and
// at high parallelism and requires bitwise-identical logits. The model is
// sized so both the slot fan-out and the banded matmul kernels cross their
// parallel thresholds.
func TestDecoderDeterminismAcrossGOMAXPROCS(t *testing.T) {
	cfg := Config{Vocab: 128, Dim: 64, Heads: 4, Layers: 2, Hidden: 96, MaxSeq: 64}
	m := NewModel(cfg, tensor.NewRNG(82))
	const B, steps = 8, 24

	decode := func() []float32 {
		pool := tensor.NewPool()
		d := NewBatchDecoder(m, B, pool)
		defer d.Close()
		tokens := make([]int, B)
		slots := make([]int, B)
		for i := 0; i < B; i++ {
			s, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			slots[i] = s
		}
		var out []float32
		for st := 0; st < steps; st++ {
			for i := range tokens {
				tokens[i] = (st*B + i*7) % cfg.Vocab
			}
			rows, err := d.StepBatch(tokens, slots)
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rows {
				out = append(out, row...)
			}
		}
		return out
	}

	old := runtime.GOMAXPROCS(1)
	serial := decode()
	workers := runtime.NumCPU()
	if workers < 8 {
		workers = 8 // force multiple chunks even on small CI machines
	}
	runtime.GOMAXPROCS(workers)
	parallel := decode()
	runtime.GOMAXPROCS(old)

	rowsBitsEqual(t, "GOMAXPROCS 1 vs N", parallel, serial)
}

// TestDecoderPoolBalance verifies every pooled byte comes back: arena plus
// scratch released on Close after join/leave churn and Reset, and a second
// decoder construction is served from the recycled buffers.
func TestDecoderPoolBalance(t *testing.T) {
	m := tinyModel(83)
	pool := tensor.NewPool()

	run := func() {
		d := NewBatchDecoder(m, 3, pool)
		for round := 0; round < 3; round++ {
			s, err := d.Acquire()
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 4; i++ {
				if _, err := d.StepBatch([]int{i}, []int{s}); err != nil {
					t.Fatal(err)
				}
			}
			d.Release(s)
		}
		d.Reset()
		d.Close()
	}

	run()
	if st := pool.Stats(); st.BytesInUse != 0 {
		t.Fatalf("pool bytes in use after Close = %d, want 0", st.BytesInUse)
	}
	missesAfterFirst := pool.Stats().Misses
	run()
	st := pool.Stats()
	if st.BytesInUse != 0 {
		t.Fatalf("pool bytes in use after second Close = %d, want 0", st.BytesInUse)
	}
	if st.Misses != missesAfterFirst {
		t.Fatalf("second decoder allocated fresh buffers: misses %d → %d",
			missesAfterFirst, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("second decoder never hit the pool")
	}
}

// decodeStepAllocPin bounds steady-state allocations per StepBatch call on
// the serial path. The decode hot loop reuses arena rows, pooled scratch,
// and the returned row slice, so it allocates nothing once warm.
const decodeStepAllocPin = 0

func TestDecoderSteadyStateAllocs(t *testing.T) {
	m := tinyModel(84)
	pool := tensor.NewPool()
	d := NewBatchDecoder(m, 2, pool)
	defer d.Close()
	s0, _ := d.Acquire()
	s1, _ := d.Acquire()
	tokens := []int{1, 2}
	slots := []int{s0, s1}
	step := func() {
		if d.PosAt(s0) >= m.Cfg.MaxSeq {
			d.Reset()
			d.arena.Acquire()
			d.arena.Acquire()
		}
		if _, err := d.StepBatch(tokens, slots); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range []*Adapter{nil, fullAdapter(t, "allocs", 3, m.Cfg, 2)} {
		if err := d.SetAdapter(a); err != nil {
			t.Fatal(err)
		}
		step() // warm
		allocs := testing.AllocsPerRun(5, step)
		if allocs > decodeStepAllocPin {
			t.Fatalf("adapter %v: steady-state StepBatch allocates %.1f per call, pin is %d", a != nil, allocs, decodeStepAllocPin)
		}
	}
}

// vecMat computes xᵀ·W for x of length in and W of shape (in, out): the
// scalar reference kernel the batched MatMulInto path must match bitwise
// (same ascending-k accumulation, same zero skip) — the legacy-equivalence
// test relies on it.
func vecMat(x []float32, w *tensor.Tensor) []float32 {
	in, out := w.Rows(), w.Cols()
	if len(x) != in {
		panic(fmt.Sprintf("nn: vecMat length %d vs weight rows %d", len(x), in))
	}
	y := make([]float32, out)
	for i, xv := range x {
		if xv == 0 {
			continue
		}
		row := w.Row(i)
		for j, wv := range row {
			y[j] += xv * wv
		}
	}
	return y
}

// rmsnormVec applies RMSNorm to one vector.
func rmsnormVec(x, gain []float32, eps float32) []float32 {
	var ss float64
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	inv := float32(1 / math.Sqrt(ss/float64(len(x))+float64(eps)))
	y := make([]float32, len(x))
	for i, v := range x {
		y[i] = v * inv * gain[i]
	}
	return y
}

func TestVecMatAgainstMatMul(t *testing.T) {
	g := tensor.NewRNG(76)
	w := g.Normal(0, 1, 6, 9)
	x := g.Normal(0, 1, 6)
	got := vecMat(x.Data, w)
	want := tensor.MatMul(x.Reshape(1, 6), w)
	for j := range got {
		if math.Abs(float64(got[j]-want.Data[j])) > 1e-5 {
			t.Fatal("vecMat disagrees with MatMul")
		}
	}
}
