package lru

import (
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/obs"
)

// evictLog records the entries a cache's callback sees.
type evictLog []string

func (l *evictLog) add(key string, _ int, _ int64) { *l = append(*l, key) }

func TestPeekLeavesRecencyAndCounters(t *testing.T) {
	var hits, misses obs.Counter
	c := New[int](2, 0, &hits, &misses, nil)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Peek("a"); !ok || v != 1 {
		t.Fatalf("Peek(a) = %v, %v", v, ok)
	}
	if _, ok := c.Peek("zz"); ok {
		t.Fatal("Peek found a missing key")
	}
	if hits.Value() != 0 || misses.Value() != 0 {
		t.Fatalf("Peek counted %v hits, %v misses", hits.Value(), misses.Value())
	}
	// "a" is still the least recently used, so inserting "c" evicts it.
	c.Put("c", 3, 1)
	if _, ok := c.Peek("a"); ok {
		t.Fatal("Peek refreshed recency")
	}
}

func TestRemoveSkipsCallbackAndAdvancesGen(t *testing.T) {
	var evicted evictLog
	c := New(0, 100, nil, nil, evicted.add)
	c.Put("a", 1, 40)
	c.Put("b", 2, 30)
	gen := c.Gen()
	c.Remove("a")
	if c.Gen() == gen {
		t.Fatal("Remove did not advance Gen")
	}
	if _, ok := c.Peek("a"); ok || c.Len() != 1 || c.Bytes() != 30 {
		t.Fatalf("after Remove: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
	gen = c.Gen()
	c.Remove("a") // absent: nothing changes
	if c.Gen() != gen {
		t.Fatal("Remove of an absent key advanced Gen")
	}
	if len(evicted) != 0 {
		t.Fatalf("Remove called the eviction callback for %v", evicted)
	}
}

func TestOldestIsLeastRecentlyUsed(t *testing.T) {
	c := New[int](0, 0, nil, nil, nil)
	if _, _, ok := c.Oldest(); ok {
		t.Fatal("empty cache has an oldest entry")
	}
	c.Put("a", 1, 0)
	c.Put("b", 2, 0)
	c.Put("c", 3, 0)
	c.Get("a")
	if k, v, ok := c.Oldest(); !ok || k != "b" || v != 2 {
		t.Fatalf("Oldest = %q, %v, %v; want b, 2", k, v, ok)
	}
}

// TestEvictCallbackSeesExactlyTheEvicted checks the callback against
// both bounds and an oversized rejection, which evicts nothing.
func TestEvictCallbackSeesExactlyTheEvicted(t *testing.T) {
	var byCount evictLog
	c := New(2, 0, nil, nil, byCount.add)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Get("a")
	c.Put("c", 3, 1) // evicts b
	c.Put("d", 4, 1) // evicts a
	if !slices.Equal(byCount, evictLog{"b", "a"}) {
		t.Fatalf("count bound evicted %v, want [b a]", byCount)
	}

	var byBytes evictLog
	c = New(0, 100, nil, nil, byBytes.add)
	c.Put("a", 1, 40)
	c.Put("b", 2, 40)
	c.Put("big", 3, 500) // rejected up front: no eviction
	if len(byBytes) != 0 {
		t.Fatalf("oversized rejection evicted %v", byBytes)
	}
	c.Put("c", 4, 90) // 170 bytes: evicts a, then b
	if !slices.Equal(byBytes, evictLog{"a", "b"}) {
		t.Fatalf("byte bound evicted %v, want [a b]", byBytes)
	}
	if c.Len() != 1 || c.Bytes() != 90 {
		t.Fatalf("after evictions: Len=%d Bytes=%d", c.Len(), c.Bytes())
	}
}
