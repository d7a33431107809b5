// Package cmap provides a sharded, lock-striped concurrent hash map.
//
// The paper's dispatchers and registry are built on the concurrent hash map
// from Doug Lea's Concurrent Java Library (later java.util.concurrent).
// This package is the Go stand-in: a generic map striped across a fixed
// number of shards so that registry lookups on the dispatcher hot path and
// mailbox-table updates in WS-MsgBox do not contend on a single lock.
package cmap

import (
	"hash/maphash"
	"sync"
)

// defaultShards is the stripe count New uses: a power of two so shard
// selection is a mask, not a modulo.
const defaultShards = 32

// maxShards bounds NewSized so a miscomputed size cannot allocate an
// absurd stripe table.
const maxShards = 4096

// Map is a concurrent hash map from string keys to values of type V.
// The zero value is not usable; construct with New or NewSized.
type Map[V any] struct {
	seed   maphash.Seed
	mask   uint64
	shards []shard[V]
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// New returns an empty concurrent map with the default stripe count.
func New[V any]() *Map[V] { return NewSized[V](defaultShards) }

// NewSized returns an empty concurrent map striped across the given
// number of shards, rounded up to a power of two and clamped to
// [1, 4096]. Keys hash to a stable shard for the map's lifetime, so a
// hot structure (a dispatcher's pending-reply table, its
// per-destination queue index) can widen its striping without changing
// any ordering or visibility property; shards == 1 degenerates to a
// single-lock map, which is what contention benchmarks compare against.
func NewSized[V any](shards int) *Map[V] {
	n := 1
	for n < shards && n < maxShards {
		n <<= 1
	}
	c := &Map[V]{seed: maphash.MakeSeed(), mask: uint64(n - 1), shards: make([]shard[V], n)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]V)
	}
	return c
}

func (c *Map[V]) shard(key string) *shard[V] {
	h := maphash.String(c.seed, key)
	return &c.shards[h&c.mask]
}

// Shards reports the stripe count (for tests and introspection).
func (c *Map[V]) Shards() int { return len(c.shards) }

// Get returns the value stored for key and whether it was present.
func (c *Map[V]) Get(key string) (V, bool) {
	s := c.shard(key)
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

// Put stores value under key, replacing any previous value.
func (c *Map[V]) Put(key string, value V) {
	s := c.shard(key)
	s.mu.Lock()
	s.m[key] = value
	s.mu.Unlock()
}

// GetAndDelete atomically removes key and returns the value it held.
// Exactly one of any number of concurrent claimants observes ok ==
// true; everyone else gets the zero value. This is the one-lock claim
// the reply-routing path needs: a separate Get followed by Delete lets
// two routers both observe the entry and both believe they own it.
func (c *Map[V]) GetAndDelete(key string) (V, bool) {
	s := c.shard(key)
	s.mu.Lock()
	v, ok := s.m[key]
	if ok {
		delete(s.m, key)
	}
	s.mu.Unlock()
	return v, ok
}

// Delete removes key and reports whether it was present.
func (c *Map[V]) Delete(key string) bool {
	s := c.shard(key)
	s.mu.Lock()
	_, ok := s.m[key]
	delete(s.m, key)
	s.mu.Unlock()
	return ok
}

// GetOrCompute returns the value for key, computing and storing it with f
// if absent. f is called at most once per absent key and runs under the
// shard lock, so it must not re-enter the map.
func (c *Map[V]) GetOrCompute(key string, f func() V) V {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[key]; ok {
		return v
	}
	v := f()
	s.m[key] = v
	return v
}

// Update atomically applies f to the current value for key (or the zero
// value if absent) and stores the result. It returns the stored value.
func (c *Map[V]) Update(key string, f func(old V, present bool) V) V {
	s := c.shard(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.m[key]
	v := f(old, ok)
	s.m[key] = v
	return v
}

// Len returns the total number of entries. It is a snapshot: concurrent
// writers may change the count while it is being computed.
func (c *Map[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Range calls f for every entry until f returns false. Entries written
// during iteration may or may not be observed; each present key is visited
// at most once.
func (c *Map[V]) Range(f func(key string, value V) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		// Copy the shard so f can call back into the map.
		entries := make(map[string]V, len(s.m))
		for k, v := range s.m {
			entries[k] = v
		}
		s.mu.RUnlock()
		for k, v := range entries {
			if !f(k, v) {
				return
			}
		}
	}
}

// Keys returns a snapshot of all keys in unspecified order.
func (c *Map[V]) Keys() []string {
	keys := make([]string, 0, c.Len())
	c.Range(func(k string, _ V) bool {
		keys = append(keys, k)
		return true
	})
	return keys
}
