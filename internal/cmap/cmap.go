// Package cmap provides a sharded, lock-striped concurrent hash map.
//
// The paper's dispatchers and registry are built on the concurrent hash map
// from Doug Lea's Concurrent Java Library (later java.util.concurrent).
// This package is the Go stand-in: a generic map striped across a fixed
// number of shards so that registry lookups on the dispatcher hot path and
// mailbox-table updates in WS-MsgBox do not contend on a single lock.
//
// # Striping
//
// Every Map stripes by maphash over the same 64 shards; keys hash to a
// stable shard for the map's lifetime, so no ordering or visibility
// property depends on the shard a key lands in. The count is fixed
// because it was measured, not tuned per map: the MSG-Dispatcher's full
// exchange over in-memory pipes (go1.24, 2 vCPU, 20000 exchanges, five
// runs) took 11.3-12.1 µs with 64 shards against 12.8-13.9 µs with one
// lock at two Ps, faster in every run, and the same at one P.
//
// Claiming an entry that several goroutines may race for MUST use
// GetAndDelete: one lock acquisition, exactly one claimant. A Get
// followed by Delete lets two claimants both observe the entry.
// TestConcurrentGetAndDeleteSingleClaimant fences this.
package cmap

import (
	"hash/maphash"
	"sync"
)

// shardCount is the stripe count of every Map: a power of two so shard
// selection is a mask, not a modulo.
const shardCount = 64

// Map is a concurrent hash map from string keys to values of type V.
// The zero value is not usable; construct with New.
type Map[V any] struct {
	seed   maphash.Seed
	shards []shard[V] // a separate allocation: lock writes stay off seed's cache line
}

type shard[V any] struct {
	mu sync.RWMutex
	m  map[string]V
}

// New returns an empty concurrent map.
func New[V any]() *Map[V] {
	c := &Map[V]{seed: maphash.MakeSeed(), shards: make([]shard[V], shardCount)}
	for i := range c.shards {
		c.shards[i].m = make(map[string]V)
	}
	return c
}

func (c *Map[V]) shard(key string) *shard[V] {
	h := maphash.String(c.seed, key)
	return &c.shards[h&(shardCount-1)]
}

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
