package nn

import (
	"fmt"

	"edgellm/internal/tensor"
)

// KVArena is the contiguous, preallocated key/value cache behind the batched
// decoder: one pooled block of layers·slots·maxSeq·dim floats for keys and
// one for values, carved into fixed per-slot regions. A generation stream
// owns one slot from Acquire to Release; its region for layer l is the
// maxSeq·dim floats from (l·slots+slot)·maxSeq·dim. Values are rows there,
// one per position. Keys are transposed, a tile of keyTilePositions
// positions at a time: within a tile the keys of one head dimension are
// contiguous, so decode attention's scores are column lanes over positions
// (tensor.SumCols) with no gather, and a tile's pages are first touched when
// a sequence reaches it rather than at its first token. Nothing is allocated
// per token: appending writes a value row and a key column, releasing a slot
// just resets its length, and the two backing blocks go back to the pool on
// Close.
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

// keyTilePositions is how many positions one transposed key tile holds.
const keyTilePositions = 32

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

// keyTile returns the transposed key tile of (layer l, slot s) that holds
// position p: dim rows of w consecutive positions from p0, so element
// (j, t) is tile[j·w + t - p0]. Every tile is keyTilePositions wide but a
// last one that MaxSeq cuts short.
func (a *KVArena) keyTile(l, s, p int) (tile []float32, p0, w int) {
	p0 = p - p%keyTilePositions
	w = min(keyTilePositions, a.maxSeq-p0)
	base := ((l*a.slots+s)*a.maxSeq + p0) * a.dim
	return a.k.Data[base : base+a.dim*w], p0, w
}

// putKey writes elements [lo, lo+len(keys)) of the key row of (layer l,
// slot s, position p) into its tile's column.
func (a *KVArena) putKey(l, s, p, lo int, keys []float32) {
	tile, p0, w := a.keyTile(l, s, p)
	for j, v := range keys {
		tile[(lo+j)*w+p-p0] = v
	}
}

// values returns the value rows of (layer l, slot s), (maxSeq, dim)
// row-major.
func (a *KVArena) values(l, s int) []float32 {
	base := (l*a.slots + s) * a.maxSeq * a.dim
	return a.v.Data[base : base+a.maxSeq*a.dim]
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
