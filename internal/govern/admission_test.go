package govern

import (
	"errors"
	"sync"
	"testing"

	"edgellm/internal/nn"
	"edgellm/internal/tensor"
)

func TestAdmissionLedger(t *testing.T) {
	a := NewAdmission(Budget{MemoryBytes: 1000})
	if !a.Enabled() {
		t.Fatal("admission with a budget should be enabled")
	}
	if err := a.TryReserve(600); err != nil {
		t.Fatalf("first reserve: %v", err)
	}
	if err := a.TryReserve(300); err != nil {
		t.Fatalf("second reserve: %v", err)
	}
	if got := a.ReservedBytes(); got != 900 {
		t.Fatalf("reserved = %d, want 900", got)
	}
	// 200 more would exceed the budget, but fits once something frees: a
	// transient rejection.
	err := a.TryReserve(200)
	var obe *OverBudgetError
	if !errors.As(err, &obe) {
		t.Fatalf("over-budget reserve = %v, want *OverBudgetError", err)
	}
	if obe.Permanent {
		t.Fatalf("transient rejection marked permanent: %+v", obe)
	}
	a.Release(600)
	if err := a.TryReserve(200); err != nil {
		t.Fatalf("reserve after release: %v", err)
	}
	// A request larger than the whole budget can never fit: permanent.
	err = a.TryReserve(2000)
	if !errors.As(err, &obe) {
		t.Fatalf("unfittable reserve = %v, want *OverBudgetError", err)
	}
	if !obe.Permanent {
		t.Fatalf("unfittable rejection not marked permanent: %+v", obe)
	}
}

func TestAdmissionDisabled(t *testing.T) {
	var a *Admission
	if a.Enabled() {
		t.Fatal("nil admission reports enabled")
	}
	if err := a.TryReserve(1 << 40); err != nil {
		t.Fatalf("nil admission rejected: %v", err)
	}
	a.Release(1 << 40) // must not panic
	z := NewAdmission(Budget{})
	if z.Enabled() {
		t.Fatal("zero-budget admission reports enabled")
	}
	if err := z.TryReserve(1 << 40); err != nil {
		t.Fatalf("zero-budget admission rejected: %v", err)
	}
}

func TestAdmissionReleaseClamps(t *testing.T) {
	a := NewAdmission(Budget{MemoryBytes: 100})
	a.Release(50) // spurious release must not go negative
	if got := a.ReservedBytes(); got != 0 {
		t.Fatalf("reserved after spurious release = %d, want 0", got)
	}
	if err := a.TryReserve(100); err != nil {
		t.Fatalf("full-budget reserve after clamp: %v", err)
	}
}

// TestAdmissionConcurrent hammers reserve/release from many goroutines: the
// ledger must never exceed the budget and must return to zero.
func TestAdmissionConcurrent(t *testing.T) {
	const (
		budget  = 10_000
		chunk   = 100
		workers = 16
		rounds  = 200
	)
	a := NewAdmission(Budget{MemoryBytes: budget})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := a.TryReserve(chunk); err != nil {
					var obe *OverBudgetError
					if !errors.As(err, &obe) {
						t.Errorf("reserve error = %v, want *OverBudgetError", err)
						return
					}
					continue
				}
				if got := a.ReservedBytes(); got > budget {
					t.Errorf("reserved %d exceeds budget %d", got, budget)
				}
				a.Release(chunk)
			}
		}()
	}
	wg.Wait()
	if got := a.ReservedBytes(); got != 0 {
		t.Fatalf("reserved after drain = %d, want 0", got)
	}
}

func TestServeKVBytes(t *testing.T) {
	// Mirrors the KV arena accounting: 2 tensors (K and V) of float32 per
	// layer per token position.
	got := ServeKVBytes(4, 64, 128)
	want := int64(2 * 4 * 4 * 128 * 64)
	if got != want {
		t.Fatalf("ServeKVBytes(4,64,128) = %d, want %d", got, want)
	}
	if ServeKVBytes(0, 64, 128) != 0 {
		t.Fatal("zero layers should cost zero")
	}
}

// TestServeKVBytesMatchesArena: the admission estimate is what the KV arena
// pins. After n fed tokens, whether they came as one prompt run or one a
// step, a slot holds ServeKVBytes(L, D, n) active bytes, and the arena's
// backing is Slots × ServeKVBytes(L, D, MaxSeq).
func TestServeKVBytesMatchesArena(t *testing.T) {
	cfg := nn.Config{Vocab: 31, Dim: 16, Heads: 4, Layers: 3, Hidden: 24, MaxSeq: 12}
	const slots = 3
	dec := nn.NewBatchDecoder(nn.NewModel(cfg, tensor.NewRNG(1)), slots, nil)
	defer dec.Close()
	if got, want := dec.ArenaCapBytes(), slots*ServeKVBytes(cfg.Layers, cfg.Dim, cfg.MaxSeq); got != want {
		t.Fatalf("ArenaCapBytes = %d, want %d", got, want)
	}
	slot, err := dec.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	run := []int{1, 2, 3, 4, 5}
	if _, err := dec.StepBatch(run, []int{slot, slot, slot, slot, slot}); err != nil {
		t.Fatal(err)
	}
	for n := len(run); ; n++ {
		if got, want := dec.ArenaActiveBytes(), ServeKVBytes(cfg.Layers, cfg.Dim, n); got != want {
			t.Fatalf("after %d fed tokens: ArenaActiveBytes = %d, want ServeKVBytes = %d", n, got, want)
		}
		if n == cfg.MaxSeq {
			break
		}
		if _, err := dec.StepBatch([]int{n % cfg.Vocab}, []int{slot}); err != nil {
			t.Fatal(err)
		}
	}
	dec.Release(slot)
	if n := dec.ArenaActiveBytes(); n != 0 {
		t.Fatalf("released arena holds %d active bytes", n)
	}
}
