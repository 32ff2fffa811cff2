package autograd

import (
	"math"
	"testing"

	"edgellm/internal/tensor"
)

// poolNet builds a small net touching most pooled ops (embedding, matmul,
// SiLU, RMSNorm, attention, cross-entropy) and returns its loss and
// parameters. Deterministic given the seed.
func poolNet(seed int64) (loss *Value, params []*Value) {
	g := tensor.NewRNG(seed)
	emb := Param(g.Normal(0, 0.5, 12, 8))
	w1 := Param(g.Normal(0, 0.5, 8, 16))
	gain := Param(tensor.Ones(16))
	w2 := Param(g.Normal(0, 0.5, 16, 12))

	ids := []int{1, 5, 9, 3}
	h := Embedding(emb, ids)
	h = MatMul(h, w1)
	h = SiLU(h)
	h = RMSNorm(h, gain, 1e-5)
	h = CausalAttention(h, h, h, 2, 2, 2)
	logits := MatMul(h, w2)
	loss = CrossEntropy(logits, []int{2, 7, 0, 4}, -1)
	return loss, []*Value{emb, w1, gain, w2}
}

// runPoolNetStep runs one forward+backward (+release, trainer-style) and
// returns bitwise copies of the leaf gradients.
func runPoolNetStep(t *testing.T, seed int64) [][]uint32 {
	t.Helper()
	loss, params := poolNet(seed)
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

func TestDeterminismBackwardPoolOnVsOff(t *testing.T) {
	off := runPoolNetStep(t, 77)

	SetPool(tensor.NewPool())
	defer SetPool(nil)
	// Two pooled iterations: the second runs entirely on recycled buffers.
	on1 := runPoolNetStep(t, 77)
	on2 := runPoolNetStep(t, 77)

	for p := range off {
		for i := range off[p] {
			if off[p][i] != on1[p][i] {
				t.Fatalf("param %d grad %d differs pool-off vs pool-on (first iter)", p, i)
			}
			if off[p][i] != on2[p][i] {
				t.Fatalf("param %d grad %d differs pool-off vs pool-on (recycled iter)", p, i)
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

	_ = runPoolNetStep(t, 42)
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

	_ = runPoolNetStep(t, 42) // cold: populate the arena
	warm := p.Stats().Misses
	_ = runPoolNetStep(t, 42)
	_ = runPoolNetStep(t, 42)
	if got := p.Stats().Misses; got != warm {
		t.Fatalf("steady-state iterations missed the pool: %d new misses", got-warm)
	}
}

// TestReleaseTapeKeepsLeaves asserts parameters survive a release with
// their data and gradients intact.
func TestReleaseTapeKeepsLeaves(t *testing.T) {
	SetPool(tensor.NewPool())
	defer SetPool(nil)

	loss, params := poolNet(7)
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
