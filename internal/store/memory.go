package store

import (
	"sync/atomic"

	"pbbf/internal/cache"
	"pbbf/internal/scenario"
)

// Memory is the in-memory Store backend: the FNV-sharded, LRU-bounded
// result cache of internal/cache behind the Store contract. It is the
// fast tier of a Tiered store and the whole store of a server running
// without a -store directory.
type Memory struct {
	c    *cache.Cache[scenario.Result]
	puts atomic.Uint64
}

// NewMemory builds a memory store with the given shard count and total
// entry capacity (see cache.New for the constraints).
func NewMemory(shards, capacity int) (*Memory, error) {
	c, err := cache.New[scenario.Result](shards, capacity)
	if err != nil {
		return nil, err
	}
	return &Memory{c: c}, nil
}

// Get looks the key up in the cache.
func (m *Memory) Get(key string) (scenario.Result, bool, error) {
	res, ok := m.c.Get(key)
	return res, ok, nil
}

// Put stores the result, LRU-evicting as needed.
func (m *Memory) Put(key string, res scenario.Result) error {
	m.c.Put(key, res)
	m.puts.Add(1)
	return nil
}

// Len returns the cached entry count.
func (m *Memory) Len() int { return m.c.Len() }

// Stats maps the cache's counters onto the store snapshot shape.
func (m *Memory) Stats() Stats {
	cs := m.c.Stats()
	return Stats{
		Kind:      "memory",
		Hits:      cs.Hits,
		Misses:    cs.Misses,
		Puts:      m.puts.Load(),
		Entries:   cs.Entries,
		Evictions: cs.Evictions,
		Capacity:  cs.Capacity,
		Shards:    cs.Shards,
	}
}

// CacheStats exposes the underlying cache counters for the legacy "cache"
// key of /v1/stats, which predates the store layer.
func (m *Memory) CacheStats() cache.Stats { return m.c.Stats() }

// Close is a no-op: memory holds no external resources.
func (m *Memory) Close() error { return nil }
