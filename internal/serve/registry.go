package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"edgellm/internal/nn"
	"edgellm/internal/obsv"
)

// ErrAdapterNotFound is returned by Registry.Acquire for a tenant adapter
// with no artifact on disk (HTTP 404 at the front end).
var ErrAdapterNotFound = errors.New("serve: adapter not found")

// ErrRegistryBusy is returned when the resident-adapter bound is reached
// and every resident adapter is pinned by in-flight streams — a transient
// condition (HTTP 429): retry after streams finish.
var ErrRegistryBusy = errors.New("serve: all resident adapters are in use")

// CorruptAdapterError is returned when an artifact exists but fails its
// integrity checks — a permanent, client-visible condition (HTTP 422), never
// a panic. Whether a sound artifact fits the served model is Submit's check
// (ErrAdapterMismatch).
type CorruptAdapterError struct {
	Name string
	Err  error
}

// Error implements error.
func (e *CorruptAdapterError) Error() string {
	return fmt.Sprintf("serve: adapter %s unusable: %v", e.Name, e.Err)
}

// Unwrap exposes the underlying load error.
func (e *CorruptAdapterError) Unwrap() error { return e.Err }

// Registry hot-loads per-tenant adapter artifacts (nn.Adapter CRC format)
// from a directory and bounds how many stay resident. Acquire pins an
// adapter for the lifetime of one stream (refcount); Release unpins it.
// When loading a new adapter would exceed MaxResident, the least recently
// used unpinned adapter is evicted; if every resident adapter is pinned the
// acquire fails with ErrRegistryBusy instead of growing without bound.
type Registry struct {
	dir         string
	maxResident int

	mu      sync.Mutex
	entries map[string]*regEntry
	clock   int64 // logical LRU clock: bumped on every acquire
}

type regEntry struct {
	adapter *nn.Adapter
	refs    int
	lastUse int64
}

// NewRegistry returns a registry serving artifacts from dir, keeping at
// most maxResident adapters loaded (minimum 1).
func NewRegistry(dir string, maxResident int) *Registry {
	if maxResident < 1 {
		maxResident = 1
	}
	return &Registry{
		dir:         dir,
		maxResident: maxResident,
		entries:     make(map[string]*regEntry),
	}
}

// validName rejects adapter names that could escape the registry
// directory or collide with hidden files.
func validName(name string) bool {
	if name == "" || len(name) > 128 || strings.HasPrefix(name, ".") {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '.' || r == '_' || r == '-':
		default:
			return false
		}
	}
	return true
}

// Acquire returns the named adapter pinned for one stream, loading and
// verifying its artifact on first use. Every return path is a typed error:
// ErrAdapterNotFound (no artifact), *CorruptAdapterError (artifact failed
// integrity or validation), ErrRegistryBusy (resident bound reached with
// everything pinned). Callers must Release exactly once per successful
// Acquire.
func (r *Registry) Acquire(name string) (*nn.Adapter, error) {
	if !validName(name) {
		return nil, fmt.Errorf("%w: invalid adapter name %q", ErrAdapterNotFound, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock++
	if e, ok := r.entries[name]; ok {
		e.refs++
		e.lastUse = r.clock
		return e.adapter, nil
	}
	path := filepath.Join(r.dir, name)
	if _, err := os.Stat(path); err != nil {
		// Before the residency check: a request for an artifact that does
		// not exist must 404, not evict anything or shed as busy.
		return nil, fmt.Errorf("%w: %s", ErrAdapterNotFound, name)
	}
	if err := r.evictForSpaceLocked(); err != nil {
		return nil, err
	}
	a, err := nn.LoadAdapterFile(path)
	if err != nil {
		obsv.Add("serve.adapter_load_errors", 1)
		return nil, &CorruptAdapterError{Name: name, Err: err}
	}
	if a.Name() != name {
		obsv.Add("serve.adapter_load_errors", 1)
		return nil, &CorruptAdapterError{Name: name, Err: fmt.Errorf("artifact is named %q", a.Name())}
	}
	obsv.Add("serve.adapter_loads", 1)
	obsv.SetGauge("serve.adapter_resident", float64(len(r.entries)+1))
	r.entries[name] = &regEntry{adapter: a, refs: 1, lastUse: r.clock}
	return a, nil
}

// evictForSpaceLocked makes room for one more resident adapter, evicting
// the least recently used unpinned entry when at the bound.
func (r *Registry) evictForSpaceLocked() error {
	if len(r.entries) < r.maxResident {
		return nil
	}
	victim := ""
	var oldest int64
	for name, e := range r.entries {
		if e.refs > 0 {
			continue
		}
		if victim == "" || e.lastUse < oldest {
			victim, oldest = name, e.lastUse
		}
	}
	if victim == "" {
		return ErrRegistryBusy
	}
	delete(r.entries, victim)
	obsv.Add("serve.adapter_evictions", 1)
	obsv.SetGauge("serve.adapter_resident", float64(len(r.entries)))
	return nil
}

// Release unpins one Acquire. The adapter stays resident (warm) until LRU
// eviction needs its slot.
func (r *Registry) Release(name string) {
	r.mu.Lock()
	if e, ok := r.entries[name]; ok && e.refs > 0 {
		e.refs--
	}
	r.mu.Unlock()
}

// Resident returns the names of currently loaded adapters, sorted.
func (r *Registry) Resident() []string {
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for name := range r.entries {
		names = append(names, name)
	}
	r.mu.Unlock()
	sort.Strings(names)
	return names
}

// List returns every artifact name available on disk, sorted — resident or
// not. Unreadable directories yield an empty list (the registry may serve
// base-model-only deployments with no adapter dir at all).
func (r *Registry) List() []string {
	ents, err := os.ReadDir(r.dir)
	if err != nil {
		return nil
	}
	var names []string
	for _, ent := range ents {
		if !ent.IsDir() && validName(ent.Name()) {
			names = append(names, ent.Name())
		}
	}
	sort.Strings(names)
	return names
}
