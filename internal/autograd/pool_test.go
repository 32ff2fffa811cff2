package autograd

import (
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// poolNet builds a small net touching most pooled ops (embedding, matmul,
// SiLU, RMSNorm, attention, cross-entropy) over two sequences of seq tokens
// and returns its loss and parameters. Deterministic given the seed.
func poolNet(seed int64, seq int) (loss *Value, params []*Value) {
	g := tensor.NewRNG(seed)
	emb := Param(g.Normal(0, 0.5, 12, 8))
	w1 := Param(g.Normal(0, 0.5, 8, 16))
	gain := Param(tensor.Ones(16))
	w2 := Param(g.Normal(0, 0.5, 16, 12))

	ids := []int{1, 5, 9, 3, 11, 0, 7, 2}[:2*seq]
	h := Embedding(emb, ids)
	h = MatMul(h, w1)
	h = SiLU(h)
	h = RMSNorm(h, gain, 1e-5)
	h = CausalAttention(h, h, h, 2, seq, 2)
	logits := MatMul(h, w2)
	loss = CrossEntropy(logits, []int{2, 7, 0, 4, 10, 6, 1, 8}[:2*seq], -1)
	return loss, []*Value{emb, w1, gain, w2}
}

// runPoolNetStep runs one forward+backward (+release, trainer-style) of
// poolNet and returns bitwise copies of the leaf gradients.
func runPoolNetStep(t *testing.T, seed int64, seq int) [][]uint32 {
	t.Helper()
	loss, params := poolNet(seed, seq)
	loss.Backward()
	var grads [][]uint32
	for _, p := range params {
		if p.Grad == nil {
			t.Fatal("missing gradient")
		}
		bits := make([]uint32, len(p.Grad.Data))
		for i, v := range p.Grad.Data {
			bits[i] = math.Float32bits(v)
		}
		grads = append(grads, bits)
	}
	for _, p := range params {
		p.ZeroGrad()
	}
	ReleaseTape(loss)
	return grads
}

// TestDeterminismBackwardFreshVsStaleArena: gradients on a fresh arena equal
// those on an arena that steps at other lengths and seeds have left full of
// stale buffers, handed out in a shuffled order, on first use and on
// recycled buffers.
func TestDeterminismBackwardFreshVsStaleArena(t *testing.T) {
	SetPool(nil)
	fresh := runPoolNetStep(t, 77, 2)

	SetPool(nil)
	ActivePool().ShuffleFree(1)
	for seq := 1; seq <= 4; seq++ {
		runPoolNetStep(t, 100+int64(seq), seq)
	}
	stale1 := runPoolNetStep(t, 77, 2)
	stale2 := runPoolNetStep(t, 77, 2)

	for p := range fresh {
		for i := range fresh[p] {
			if fresh[p][i] != stale1[p][i] {
				t.Fatalf("param %d grad %d differs fresh vs stale arena (first iter)", p, i)
			}
			if fresh[p][i] != stale2[p][i] {
				t.Fatalf("param %d grad %d differs fresh vs stale arena (recycled iter)", p, i)
			}
		}
	}
}

// TestReleaseTapeReturnsEverything asserts the full round trip: after
// backward, leaf ZeroGrad, and ReleaseTape, every pooled byte is back in
// the arena.
func TestReleaseTapeReturnsEverything(t *testing.T) {
	p := tensor.NewPool()
	SetPool(p)
	defer SetPool(nil)

	_ = runPoolNetStep(t, 42, 2)
	if got := p.Stats().BytesInUse; got != 0 {
		t.Fatalf("bytes still outstanding after full release: %d", got)
	}
}

// TestPoolSteadyStateNoNewMisses asserts that once the arena is warm, a
// training-shaped iteration allocates nothing new: misses stop growing.
func TestPoolSteadyStateNoNewMisses(t *testing.T) {
	p := tensor.NewPool()
	SetPool(p)
	defer SetPool(nil)

	_ = runPoolNetStep(t, 42, 2) // cold: populate the arena
	warm := p.Stats().Misses
	_ = runPoolNetStep(t, 42, 2)
	_ = runPoolNetStep(t, 42, 2)
	if got := p.Stats().Misses; got != warm {
		t.Fatalf("steady-state iterations missed the pool: %d new misses", got-warm)
	}
}

// TestReleaseTapeKeepsLeaves asserts parameters survive a release with
// their data and gradients intact.
func TestReleaseTapeKeepsLeaves(t *testing.T) {
	loss, params := poolNet(7, 2)
	loss.Backward()
	ReleaseTape(loss)
	for i, p := range params {
		if p.Data == nil || p.Grad == nil {
			t.Fatalf("param %d lost data or grad after ReleaseTape", i)
		}
	}
	if loss.Data != nil {
		t.Fatal("released interior node should have nil data")
	}
}
