package nn

import (
	"fmt"

	"edgellm/internal/tensor"
)

// KVArena is the contiguous, preallocated key/value cache behind the batched
// decoder: one pooled (layers·slots·maxSeq, dim) tensor for keys and one for
// values, carved into fixed per-slot regions. A generation stream owns one
// slot from Acquire to Release; its cached vectors for layer l live in rows
// [(l·slots+slot)·maxSeq, …+len) — per-slot, per-layer contiguous, so decode
// attention walks the cache sequentially. Nothing is allocated per token:
// appending is a row copy, releasing a slot just resets its length, and the
// two backing blocks go back to the pool on Close.
//
// Slot assignment is deterministic: Acquire always returns the lowest free
// index, which (with FIFO admission in the serve scheduler) makes batched
// runs replayable.
type KVArena struct {
	pool   *tensor.Pool
	layers int
	slots  int
	maxSeq int
	dim    int

	k, v *tensor.Tensor // each (layers·slots·maxSeq, dim)

	lens  []int  // tokens cached per slot
	used  []bool // slot currently owned by a stream
	inUse int
}

// NewKVArena allocates the two cache blocks from pool (plain allocation when
// pool is nil). All dimensions must be positive.
func NewKVArena(pool *tensor.Pool, layers, slots, maxSeq, dim int) *KVArena {
	for _, d := range []int{layers, slots, maxSeq, dim} {
		if d <= 0 {
			panic(fmt.Sprintf("nn: KVArena dimensions must be positive, got layers=%d slots=%d maxSeq=%d dim=%d",
				layers, slots, maxSeq, dim))
		}
	}
	rows := layers * slots * maxSeq
	return &KVArena{
		pool:   pool,
		layers: layers,
		slots:  slots,
		maxSeq: maxSeq,
		dim:    dim,
		k:      pool.Get(rows, dim),
		v:      pool.Get(rows, dim),
		lens:   make([]int, slots),
		used:   make([]bool, slots),
	}
}

// Slots returns the slot capacity.
func (a *KVArena) Slots() int { return a.slots }

// InUse returns the number of acquired slots.
func (a *KVArena) InUse() int { return a.inUse }

// Len returns the number of cached tokens in slot s.
func (a *KVArena) Len(s int) int { return a.lens[s] }

// Acquire claims the lowest free slot, with an empty cache. It returns an
// error when every slot is owned — the admission signal for a scheduler.
func (a *KVArena) Acquire() (int, error) {
	for s := 0; s < a.slots; s++ {
		if !a.used[s] {
			a.claim(s)
			return s, nil
		}
	}
	return -1, fmt.Errorf("nn: KV arena full: all %d slots in use", a.slots)
}

// claim marks free slot s owned, with an empty cache. With advance, Release
// and ReleaseAll it is the arena's whole bookkeeping: nothing outside this
// file writes used, lens or inUse.
func (a *KVArena) claim(s int) {
	a.used[s] = true
	a.lens[s] = 0
	a.inUse++
}

// advance records n more cached tokens in slot s. The decoder calls it once
// per run, after the run's last K/V row is written, so a step that fails
// midway leaves every length where it was.
func (a *KVArena) advance(s, n int) { a.lens[s] += n }

// Release returns slot s to the free set. The region is reused as-is by the
// next Acquire (lengths gate every read, so stale rows are never visible).
// Releasing a free slot is a no-op.
func (a *KVArena) Release(s int) {
	if s < 0 || s >= a.slots || !a.used[s] {
		return
	}
	a.used[s] = false
	a.lens[s] = 0
	a.inUse--
}

// ReleaseAll frees every slot.
func (a *KVArena) ReleaseAll() {
	for s := range a.used {
		a.used[s] = false
		a.lens[s] = 0
	}
	a.inUse = 0
}

// kRow returns the key row of (layer l, slot s, position p).
func (a *KVArena) kRow(l, s, p int) []float32 {
	r := (l*a.slots+s)*a.maxSeq + p
	return a.k.Data[r*a.dim : (r+1)*a.dim]
}

// vRow returns the value row of (layer l, slot s, position p).
func (a *KVArena) vRow(l, s, p int) []float32 {
	r := (l*a.slots+s)*a.maxSeq + p
	return a.v.Data[r*a.dim : (r+1)*a.dim]
}

// CapBytes returns the fixed backing size of both blocks in bytes.
func (a *KVArena) CapBytes() int64 {
	return 2 * 4 * int64(a.layers) * int64(a.slots) * int64(a.maxSeq) * int64(a.dim)
}

// ActiveBytes returns the bytes currently holding live cache entries: the
// sum over acquired slots of len·dim·4 bytes, for keys and values across all
// layers. It returns to zero when every stream has left.
func (a *KVArena) ActiveBytes() int64 {
	var rows int64
	for s, u := range a.used {
		if u {
			rows += int64(a.lens[s])
		}
	}
	return rows * int64(a.dim) * int64(a.layers) * 2 * 4
}

// Close returns the backing blocks to the pool. The arena must not be used
// afterwards.
func (a *KVArena) Close() {
	a.pool.Put(a.k)
	a.pool.Put(a.v)
	a.k, a.v = nil, nil
}
