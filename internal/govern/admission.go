package govern

import (
	"fmt"
	"sync"
)

// OverBudgetError is a typed admission rejection from an Admission ledger.
// Permanent marks requests that can never fit (the need alone exceeds the
// whole budget — resubmitting is pointless); transient rejections just
// found the ledger full and may succeed after in-flight work releases.
type OverBudgetError struct {
	Need, Reserved, Budget int64
	Permanent              bool
}

// Error implements error.
func (e *OverBudgetError) Error() string {
	if e.Permanent {
		return fmt.Sprintf("govern: request needs %d bytes, more than the whole %d-byte budget", e.Need, e.Budget)
	}
	return fmt.Sprintf("govern: request needs %d bytes but only %d of %d are free", e.Need, e.Budget-e.Reserved, e.Budget)
}

// Admission is a concurrency-safe reservation ledger over a Budget's
// MemoryBytes: the serving front end reserves each request's analytic
// KV-cache need at the door and releases it when the stream finishes, so a
// request that cannot fit is shed with a typed error instead of OOM-killing
// the arena mid-stream. A zero MemoryBytes budget disables the ledger
// (every TryReserve succeeds and accounts nothing).
type Admission struct {
	budget int64

	mu       sync.Mutex
	reserved int64
}

// NewAdmission returns a ledger enforcing b.MemoryBytes.
func NewAdmission(b Budget) *Admission { return &Admission{budget: b.MemoryBytes} }

// Enabled reports whether the ledger enforces anything.
func (a *Admission) Enabled() bool { return a != nil && a.budget > 0 }

// TryReserve reserves bytes against the budget, or returns an
// *OverBudgetError (Permanent when bytes alone exceed the budget). A nil
// or disabled ledger admits everything.
func (a *Admission) TryReserve(bytes int64) error {
	if !a.Enabled() {
		return nil
	}
	if bytes > a.budget {
		return &OverBudgetError{Need: bytes, Budget: a.budget, Permanent: true}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.reserved+bytes > a.budget {
		return &OverBudgetError{Need: bytes, Reserved: a.reserved, Budget: a.budget}
	}
	a.reserved += bytes
	return nil
}

// Release returns a reservation to the ledger. Releasing more than is
// reserved clamps to zero (double releases must not poison the ledger).
func (a *Admission) Release(bytes int64) {
	if !a.Enabled() {
		return
	}
	a.mu.Lock()
	a.reserved -= bytes
	if a.reserved < 0 {
		a.reserved = 0
	}
	a.mu.Unlock()
}

// ReservedBytes returns the currently reserved total.
func (a *Admission) ReservedBytes() int64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserved
}

// ServeKVBytes is the analytic KV-cache footprint of decoding one request
// to completion: K and V rows of float32, one per layer per token, for
// prompt plus continuation. It mirrors nn.KVArena's per-slot accounting
// (2 caches · 4 bytes · layers · tokens · dim), so the ledger's admission
// decision matches what the arena will actually pin.
func ServeKVBytes(layers, dim, tokens int) int64 {
	return 2 * 4 * int64(layers) * int64(tokens) * int64(dim)
}
