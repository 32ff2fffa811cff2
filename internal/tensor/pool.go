package tensor

import (
	"sync"
	"sync/atomic"
)

// Pool is a size-keyed arena of tensor buffers. Training allocates the same
// tensor shapes every iteration (forward activations, gradients, backward
// scratch), so recycling buffers through a pool removes almost all
// steady-state allocator and GC pressure from the hot path.
//
// Get returns a zero-filled tensor — byte-for-byte equivalent to New — so
// running with a pool cannot change numerical results. Put hands a buffer
// back; the caller must not retain any alias of it. Buffers are keyed by
// element count, so a (4,8) release can satisfy a later (8,4) request.
//
// A nil *Pool is valid and degrades to plain allocation: Get falls back to
// New and Put is a no-op. All methods are safe for concurrent use.
type Pool struct {
	mu   sync.Mutex
	free map[int][]*Tensor

	hits       atomic.Int64
	misses     atomic.Int64
	bytesInUse atomic.Int64
}

// PoolStats is a snapshot of a pool's counters.
type PoolStats struct {
	// Hits counts Get calls served from the free list.
	Hits int64
	// Misses counts Get calls that fell through to a fresh allocation.
	Misses int64
	// BytesInUse is the data bytes currently handed out and not yet
	// returned. Buffers the caller drops on the floor (letting the GC
	// reclaim them instead of calling Put) stay counted here.
	BytesInUse int64
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{free: make(map[int][]*Tensor)}
}

// Get returns a zero-filled tensor of the given shape, reusing a parked
// buffer of the same element count when one is available.
func (p *Pool) Get(shape ...int) *Tensor {
	if p == nil {
		return New(shape...)
	}
	n := checkShape(shape)
	p.mu.Lock()
	list := p.free[n]
	var t *Tensor
	if len(list) > 0 {
		t = list[len(list)-1]
		list[len(list)-1] = nil
		p.free[n] = list[:len(list)-1]
	}
	p.mu.Unlock()
	p.bytesInUse.Add(int64(n) * 4)
	if t == nil {
		p.misses.Add(1)
		return New(shape...)
	}
	p.hits.Add(1)
	for i := range t.Data {
		t.Data[i] = 0
	}
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Adopt registers an externally allocated tensor's bytes as handed out by
// this pool, as if it had come from Get. It exists so long-lived memory
// that was not pool-allocated — model weights, most importantly — can be
// brought under the pool's BytesInUse accounting and later released with
// Put: packing a model's weights Puts the adopted float32 buffers back,
// making the live-bytes drop of a bit-budget directly observable in
// Stats. Adopt on a nil pool or an empty tensor is a no-op.
func (p *Pool) Adopt(t *Tensor) {
	if p == nil || t == nil || len(t.Data) == 0 {
		return
	}
	p.bytesInUse.Add(int64(len(t.Data)) * 4)
}

// Put parks t for reuse by a later Get of the same element count. The
// caller must own t exclusively: no live tensor may alias t.Data. Put on a
// nil pool or a nil tensor is a no-op.
func (p *Pool) Put(t *Tensor) {
	if p == nil || t == nil || len(t.Data) == 0 {
		return
	}
	n := len(t.Data)
	p.bytesInUse.Add(int64(n) * -4)
	p.mu.Lock()
	p.free[n] = append(p.free[n], t)
	p.mu.Unlock()
}

// Stats returns a snapshot of the pool's hit/miss/occupancy counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:       p.hits.Load(),
		Misses:     p.misses.Load(),
		BytesInUse: p.bytesInUse.Load(),
	}
}
