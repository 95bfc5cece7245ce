package cache

import (
	"fmt"
	"sync"
	"testing"
)

func mustNew(t *testing.T, shards, capacity int) *Cache[int] {
	t.Helper()
	c, err := New[int](shards, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidates(t *testing.T) {
	if _, err := New[int](0, 10); err == nil {
		t.Fatal("zero shards accepted")
	}
	if _, err := New[int](-1, 10); err == nil {
		t.Fatal("negative shards accepted")
	}
	if _, err := New[int](4, 3); err == nil {
		t.Fatal("capacity below shard count accepted")
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard isolates the LRU order from hashing.
	c := mustNew(t, 1, 3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	c.Get("a")    // touch a: LRU order is now b, c, a
	c.Put("d", 4) // evicts b

	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v", st)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("LRU victim b still cached")
	}
	c.Put("b", 2)
	// b's insert evicted c (the new LRU); a and d must still be resident.
	for _, k := range []string{"a", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("recently used %q was evicted", k)
		}
	}
}

func TestShardDistribution(t *testing.T) {
	const shards = 8
	c, err := New[int](shards, 8192)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, shards)
	const keys = 4096
	for i := 0; i < keys; i++ {
		counts[c.shardFor(fmt.Sprintf("fig%d|scale|x=%d", i%20, i))]++
	}
	// FNV over realistic keys should spread well; allow generous slack
	// around the ideal keys/shards to keep the test robust.
	for i, n := range counts {
		if n < keys/shards/2 || n > keys/shards*2 {
			t.Fatalf("shard %d holds %d of %d keys (counts %v)", i, n, keys, counts)
		}
	}

	// Keys must land on stable shards, and the capacity split must cover
	// the whole configured bound.
	if got := c.Stats().Capacity; got != 8192 {
		t.Fatalf("capacity = %d, want 8192", got)
	}
}

func TestCapacitySplitCoversUnevenDivision(t *testing.T) {
	c, err := New[int](3, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Capacity; got != 10 {
		t.Fatalf("capacity = %d, want 10", got)
	}
}

func TestConcurrentMixedKeys(t *testing.T) {
	c := mustNew(t, 4, 32)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", i%50)
				if v, ok := c.Get(k); ok && v != i%50 {
					t.Errorf("k=%s v=%d", k, v)
				}
				c.Put(k, i%50)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > 32 {
		t.Fatalf("cache exceeded capacity: %d entries", n)
	}
}

// TestGetOrComputeHitAndMiss walks the get-or-compute cycle a caching
// tier runs on top of Get/Put: the first lookup misses and computes, the
// second is served from the cache without computing again.
func TestGetOrComputeHitAndMiss(t *testing.T) {
	c := mustNew(t, 4, 16)
	calls := 0
	compute := func() int { calls++; return 42 }
	getOrCompute := func(key string) (int, bool) {
		if v, ok := c.Get(key); ok {
			return v, true
		}
		v := compute()
		c.Put(key, v)
		return v, false
	}

	if v, cached := getOrCompute("k"); v != 42 || cached {
		t.Fatalf("first call: v=%d cached=%v", v, cached)
	}
	if v, cached := getOrCompute("k"); v != 42 || !cached {
		t.Fatalf("second call: v=%d cached=%v", v, cached)
	}
	if calls != 1 {
		t.Fatalf("compute ran %d times, want 1", calls)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestGetPut covers the tier API (store.Store's memory backend): Put
// publishes immediately, Get counts hits and misses, and Put respects the
// LRU bound.
func TestGetPut(t *testing.T) {
	c := mustNew(t, 2, 4)
	if _, ok := c.Get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put("a", 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("get a: %d ok=%v", v, ok)
	}
	// Overwrite keeps one entry.
	c.Put("a", 2)
	if v, ok := c.Get("a"); !ok || v != 2 || c.Len() != 1 {
		t.Fatalf("after overwrite: %d ok=%v len=%d", v, ok, c.Len())
	}
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v", st)
	}
	// Put evicts beyond capacity.
	for i := 0; i < 20; i++ {
		c.Put(fmt.Sprintf("k%d", i), i)
	}
	if c.Len() > 4 {
		t.Fatalf("put overflowed the LRU bound: %d entries", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions counted")
	}
}
