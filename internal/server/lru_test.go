package server

import (
	"fmt"
	"sync"
	"testing"

	"github.com/factcheck/cleansel/internal/lru"
	"github.com/factcheck/cleansel/internal/obs"
)

func TestLRUBasics(t *testing.T) {
	var hits, misses obs.Counter
	c := lru.New[int](2, 0, &hits, &misses, nil)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", 3, 1)
	if _, ok := c.Get("b"); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("recently-used entry evicted: %v, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
	if hits.Value() != 2 || misses.Value() != 2 {
		t.Fatalf("stats = %v/%v, want 2/2", hits.Value(), misses.Value())
	}
}

func TestLRUUpdateRefreshes(t *testing.T) {
	c := lru.New[int](2, 0, nil, nil, nil)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Put("a", 10, 1) // refresh, not insert
	c.Put("c", 3, 1)  // evicts b, not a
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("refreshed entry = %v, %v", v, ok)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("stale entry survived")
	}
}

func TestLRUDisabled(t *testing.T) {
	c := lru.New[int](-1, 0, nil, nil, nil)
	c.Put("a", 1, 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("disabled cache stored an entry")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRUConcurrentAccess(t *testing.T) {
	c := lru.New[int](16, 0, nil, nil, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (g+i)%32)
				c.Put(key, i, 1)
				c.Get(key)
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 16 {
		t.Fatalf("capacity exceeded: %d", c.Len())
	}
}

func TestLRUByteBound(t *testing.T) {
	c := lru.New[string](0, 100, nil, nil, nil) // unbounded count, 100-byte budget
	c.Put("a", "x", 40)
	c.Put("b", "y", 40)
	c.Put("c", "z", 40) // 120 bytes total: evicts "a"
	if _, ok := c.Get("a"); ok {
		t.Fatal("byte budget not enforced")
	}
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes = %d, want 80", got)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// Refreshing an entry with a larger size re-evicts.
	c.Put("b", "yy", 80) // b=80 + c=40 = 120: evicts c (LRU)
	if _, ok := c.Get("c"); ok {
		t.Fatal("grown refresh did not evict")
	}
	if got := c.Bytes(); got != 80 {
		t.Fatalf("Bytes after refresh = %d, want 80", got)
	}
}

func TestLRUOversizedEntryNotRetained(t *testing.T) {
	c := lru.New[string](0, 100, nil, nil, nil)
	c.Put("big", "v", 500)
	if _, ok := c.Get("big"); ok {
		t.Fatal("entry larger than the byte budget was retained")
	}
	if c.Bytes() != 0 || c.Len() != 0 {
		t.Fatalf("cache not empty: %d entries, %d bytes", c.Len(), c.Bytes())
	}
}

// TestLRUOversizedEntryPreservesResidents pins the rejection order: an
// entry that can never fit must be refused up front, not flush the
// warm entries making room for it.
func TestLRUOversizedEntryPreservesResidents(t *testing.T) {
	c := lru.New[string](0, 100, nil, nil, nil)
	c.Put("a", "x", 40)
	c.Put("b", "y", 40)
	c.Put("big", "v", 500)
	if _, ok := c.Get("a"); !ok {
		t.Fatal("resident entry flushed by an oversized Put")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("resident entry flushed by an oversized Put")
	}
	if c.Len() != 2 || c.Bytes() != 80 {
		t.Fatalf("cache = %d entries / %d bytes, want 2 / 80", c.Len(), c.Bytes())
	}
	// A refresh that outgrows the budget drops the stale entry rather
	// than serving it.
	c.Put("a", "xxl", 500)
	if _, ok := c.Get("a"); ok {
		t.Fatal("stale undersized entry served after oversized refresh")
	}
	if _, ok := c.Get("b"); !ok {
		t.Fatal("unrelated entry lost on oversized refresh")
	}
}
