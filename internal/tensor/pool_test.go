package tensor

import (
	"slices"
	"sync"
	"testing"
)

func TestPoolGetReturnsZeroedReusedBuffer(t *testing.T) {
	p := NewPool()
	a := p.Get(4, 8)
	for i := range a.Data {
		a.Data[i] = float32(i + 1)
	}
	data := &a.Data[0]
	p.Put(a)

	b := p.Get(8, 4) // same element count, different shape
	if &b.Data[0] != data {
		t.Fatal("expected the parked buffer to be reused")
	}
	if b.Shape[0] != 8 || b.Shape[1] != 4 {
		t.Fatalf("reused tensor shape %v, want [8 4]", b.Shape)
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reused buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestPoolStats(t *testing.T) {
	p := NewPool()
	a := p.Get(2, 3) // miss
	s := p.Stats()
	if s.Misses != 1 || s.Hits != 0 {
		t.Fatalf("after first Get: %+v", s)
	}
	if s.BytesInUse != 24 {
		t.Fatalf("bytes in use %d, want 24", s.BytesInUse)
	}
	p.Put(a)
	if got := p.Stats().BytesInUse; got != 0 {
		t.Fatalf("bytes in use after Put %d, want 0", got)
	}
	p.Get(3, 2) // hit (same element count)
	s = p.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("after reuse: %+v", s)
	}
	p.Get(2, 3) // miss (free list empty again)
	if got := p.Stats().Misses; got != 2 {
		t.Fatalf("misses %d, want 2", got)
	}
}

func TestPoolNilReceiverFallsBack(t *testing.T) {
	var p *Pool
	a := p.Get(3, 3)
	if a.Len() != 9 {
		t.Fatalf("nil pool Get len %d", a.Len())
	}
	p.Put(a) // must not panic
	if s := p.Stats(); s != (PoolStats{}) {
		t.Fatalf("nil pool stats %+v", s)
	}
}

func TestPoolPutNilIsNoOp(t *testing.T) {
	p := NewPool()
	p.Put(nil)
	if s := p.Stats(); s.BytesInUse != 0 {
		t.Fatalf("stats after Put(nil): %+v", s)
	}
}

// TestPoolConcurrent exercises Get/Put from many goroutines; run with
// -race it doubles as the pool's data-race check.
func TestPoolConcurrent(t *testing.T) {
	p := NewPool()
	var wg sync.WaitGroup
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				a := p.Get(8, 8)
				b := p.Get(4, 4)
				a.Data[0] = float32(w)
				b.Data[0] = float32(i)
				p.Put(a)
				p.Put(b)
			}
		}()
	}
	wg.Wait()
	if got := p.Stats().BytesInUse; got != 0 {
		t.Fatalf("bytes in use after balanced Get/Put %d, want 0", got)
	}
}

// TestPoolShuffleFree: a shuffled pool still hands out every parked buffer
// of a size exactly once before it allocates, in an order other than last
// in, first out.
func TestPoolShuffleFree(t *testing.T) {
	const n = 8
	p := NewPool()
	p.ShuffleFree(3)
	parked := make([]*Tensor, n)
	for i := range parked {
		parked[i] = New(2, 3)
	}
	for _, b := range parked {
		p.Put(b)
	}
	seen := map[*Tensor]bool{}
	lifo := true
	for i := range n {
		got := p.GetUncleared(3, 2)
		if seen[got] || !slices.Contains(parked, got) {
			t.Fatalf("get %d returned a buffer that was not parked, or one twice", i)
		}
		seen[got] = true
		lifo = lifo && got == parked[n-1-i]
	}
	if lifo {
		t.Fatal("a shuffled pool handed its buffers out last in, first out")
	}
	if s := p.Stats(); s.Hits != n || s.Misses != 0 {
		t.Fatalf("stats %+v, want %d hits and no miss", s, n)
	}
}
