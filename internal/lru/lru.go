// Package lru is the serving layer's one bounded-state policy: a
// mutex-guarded least-recently-used map bounded by an entry count and,
// optionally, a total size in bytes. cleanseld keeps five sets in it:
// the result cache and the in-memory dataset store, the on-disk dataset
// index, the live session table, and the IDs of expired sessions.
package lru

import (
	"container/list"
	"sync"

	"github.com/factcheck/cleansel/internal/obs"
)

// Cache is the LRU map. All methods are safe for concurrent use.
type Cache[V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	gen        uint64 // bumped on every content change (insert/update/evict/remove)
	ll         *list.List
	items      map[string]*list.Element

	// hits and misses are ticked by Get. They are the caller's
	// counters, typically registered on /metrics, so every view of
	// them reads one source; nil counts nothing.
	hits, misses *obs.Counter
	onEvict      func(key string, val V, size int64)
}

type entry[V any] struct {
	key  string
	val  V
	size int64
}

// New builds a cache holding at most maxEntries entries (0 means
// unbounded by count) totalling at most maxBytes (0 means unbounded by
// size). maxEntries < 0 disables the cache: every Get misses and every
// Put is dropped. Get ticks hits and misses. onEvict, when non-nil, is
// called under the cache's lock for each entry Put drops to meet a
// bound, so it must not call back into the cache.
func New[V any](maxEntries int, maxBytes int64, hits, misses *obs.Counter, onEvict func(key string, val V, size int64)) *Cache[V] {
	return &Cache[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      make(map[string]*list.Element),
		hits:       hits,
		misses:     misses,
		onEvict:    onEvict,
	}
}

// MaxBytes returns the byte bound (0 means unbounded by size).
func (c *Cache[V]) MaxBytes() int64 { return c.maxBytes }

// Get returns the cached value and marks it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Inc()
		return el.Value.(*entry[V]).val, true
	}
	c.misses.Inc()
	var zero V
	return zero, false
}

// Peek returns the cached value without marking it used or counting a
// hit or miss.
func (c *Cache[V]) Peek(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// Oldest returns the least recently used entry.
func (c *Cache[V]) Oldest() (key string, val V, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el := c.ll.Back(); el != nil {
		e := el.Value.(*entry[V])
		return e.key, e.val, true
	}
	return "", val, false
}

// Put inserts or refreshes a value of the given approximate size,
// evicting least-recently-used entries while either bound is
// exceeded. An entry larger than maxBytes on its own is rejected up
// front — without touching the resident entries, which would
// otherwise all be flushed making room for something that can never
// fit (any stale entry under the same key is dropped, not kept, and
// not reported to onEvict).
func (c *Cache[V]) Put(key string, val V, size int64) {
	if c.maxEntries < 0 {
		return
	}
	if size < 0 {
		size = 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	if c.maxBytes > 0 && size > c.maxBytes {
		if el, ok := c.items[key]; ok {
			c.remove(el)
		}
		return
	}
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val, size: size})
		c.bytes += size
	}
	for c.ll.Len() > 0 &&
		((c.maxEntries > 0 && c.ll.Len() > c.maxEntries) ||
			(c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		e := c.remove(c.ll.Back())
		if c.onEvict != nil {
			c.onEvict(e.key, e.val, e.size)
		}
	}
}

// Remove drops key, if present, without calling onEvict.
func (c *Cache[V]) Remove(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.gen++
		c.remove(el)
	}
}

// remove unlinks el and returns its entry. Callers hold c.mu.
func (c *Cache[V]) remove(el *list.Element) *entry[V] {
	e := el.Value.(*entry[V])
	c.ll.Remove(el)
	delete(c.items, e.key)
	c.bytes -= e.size
	return e
}

// Each calls f on every entry from least to most recently used, under
// the lock. Snapshots use it: re-inserting entries in this order
// through Put reproduces the recency order exactly.
func (c *Cache[V]) Each(f func(key string, val V, size int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*entry[V])
		f(e.key, e.val, e.size)
	}
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the total approximate size of the cached entries.
func (c *Cache[V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Gen returns a counter that advances on every content change (any
// Put, and any Remove of a present key). Recency-only changes (Get) do
// not advance it: two equal Gen readings mean the cached keys and
// values are unchanged, which lets the snapshot loop skip rewriting an
// unchanged cache.
func (c *Cache[V]) Gen() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.gen
}
