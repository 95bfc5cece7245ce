// Package cache is a content-addressed, sharded result cache for pure
// computations. Keys are canonical strings (see scenario.PointKey); values
// are whatever the computation produces. The key space is split across N
// independently locked shards by FNV-1a hash, and each shard bounds its
// entry count with LRU eviction. Hit, miss, and eviction counters make the
// cache's behavior observable (served by /v1/stats). De-duplicating
// concurrent computations of one key is store.Flight's job, not the
// cache's.
package cache

import (
	"fmt"
	"sync"
)

// Stats is a point-in-time snapshot of the cache's counters, aggregated
// across shards.
type Stats struct {
	// Hits counts lookups served from a completed entry.
	Hits uint64 `json:"hits"`
	// Misses counts lookups that had to compute.
	Misses uint64 `json:"misses"`
	// InflightJoins is always zero: the cache runs no computations
	// (store.Flight counts joins). The field keeps the wire shape of the
	// "cache" object in /v1/stats and the run stream.
	InflightJoins uint64 `json:"inflight_joins"`
	// Evictions counts entries dropped by the per-shard LRU bound.
	Evictions uint64 `json:"evictions"`
	// Entries is the current number of cached entries.
	Entries int `json:"entries"`
	// Capacity is the total entry bound across shards.
	Capacity int `json:"capacity"`
	// Shards is the shard count.
	Shards int `json:"shards"`
}

// Cache is a sharded LRU cache. The zero value is not usable; construct
// with New.
type Cache[V any] struct {
	shards []shard[V]
}

// entry is one cached value. prev/next thread the shard's LRU list (most
// recent at head).
type entry[V any] struct {
	key        string
	val        V
	prev, next *entry[V]
}

type shard[V any] struct {
	mu      sync.Mutex
	entries map[string]*entry[V]
	// head is the most recently used entry, tail the least.
	head, tail *entry[V]
	capacity   int

	hits, misses, evictions uint64
}

// New returns a cache with the given shard count and total entry capacity,
// split evenly across shards (each shard holds at least one entry).
func New[V any](shards, capacity int) (*Cache[V], error) {
	if shards <= 0 {
		return nil, fmt.Errorf("cache: shard count %d must be positive", shards)
	}
	if capacity < shards {
		return nil, fmt.Errorf("cache: capacity %d below shard count %d", capacity, shards)
	}
	c := &Cache[V]{shards: make([]shard[V], shards)}
	for i := range c.shards {
		per := capacity / shards
		if i < capacity%shards {
			per++
		}
		c.shards[i] = shard[V]{entries: make(map[string]*entry[V]), capacity: per}
	}
	return c, nil
}

// Get returns the value cached under key, counting the hit or miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	sh := &c.shards[fnv1a(key)%uint64(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		sh.hits++
		sh.moveToFront(e)
		return e.val, true
	}
	sh.misses++
	var zero V
	return zero, false
}

// Put stores a value under key, overwriting in place or evicting LRU
// entries as needed.
func (c *Cache[V]) Put(key string, val V) {
	sh := &c.shards[fnv1a(key)%uint64(len(c.shards))]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.entries[key]; ok {
		e.val = val
		sh.moveToFront(e)
		return
	}
	e := &entry[V]{key: key, val: val}
	sh.entries[key] = e
	sh.pushFront(e)
	sh.evict()
}

// Stats aggregates the counters across shards.
func (c *Cache[V]) Stats() Stats {
	var s Stats
	s.Shards = len(c.shards)
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Evictions += sh.evictions
		s.Entries += len(sh.entries)
		s.Capacity += sh.capacity
		sh.mu.Unlock()
	}
	return s
}

// Len returns the current entry count.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// shardFor exposes the shard index of a key for distribution tests.
func (c *Cache[V]) shardFor(key string) int {
	return int(fnv1a(key) % uint64(len(c.shards)))
}

// evict drops least-recently-used entries until the shard is within
// capacity.
func (sh *shard[V]) evict() {
	for len(sh.entries) > sh.capacity {
		victim := sh.tail
		sh.unlink(victim)
		delete(sh.entries, victim.key)
		sh.evictions++
	}
}

func (sh *shard[V]) pushFront(e *entry[V]) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard[V]) moveToFront(e *entry[V]) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// fnv1a is the 64-bit FNV-1a hash, inlined to keep key->shard routing
// allocation-free.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
