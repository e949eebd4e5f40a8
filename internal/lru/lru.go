// Package lru provides the bounded least-recently-used map underneath
// the serving layer's caches: the answer cache and the query-graph map
// each wrap one Cache. The core is deliberately
// policy-free — no TTLs, no counters, no key semantics — so each wrapper
// keeps its own validity rules (the answer cache's entries record the
// generations they are exact at) and its own hit/miss accounting on
// top.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map from keys of type K to values of type V.
// All methods are safe for concurrent use. A capacity below 1 disables
// the cache entirely: every lookup misses and Put is a no-op.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[K]*list.Element
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns a cache holding at most capacity entries.
func New[K comparable, V any](capacity int) *Cache[K, V] {
	return &Cache[K, V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
	}
}

// Capacity returns the configured bound.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Get returns the value under key, marking it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put stores val under key (replacing any previous value and marking it
// most recently used), evicting least-recently-used entries while the
// cache is over capacity. It returns the number of evictions.
func (c *Cache[K, V]) Put(key K, val V) int {
	if c.capacity < 1 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return 0
	}
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	evicted := 0
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[K, V]).key)
		evicted++
	}
	return evicted
}

// Replace settles an entry an earlier read (typically a PruneFunc pass)
// saw, without overwriting anything that read did not see: while the
// value under key is still the one read — same reports it — the entry
// is dropped when drop is set and otherwise holds next, in place with
// its recency unchanged. An absent or since-replaced entry is left
// alone. Replace reports whether it acted.
func (c *Cache[K, V]) Replace(key K, same func(V) bool, next V, drop bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	e := el.Value.(*entry[K, V])
	if !same(e.val) {
		return false
	}
	if drop {
		c.ll.Remove(el)
		delete(c.items, key)
	} else {
		e.val = next
	}
	return true
}

// PruneFunc removes every entry for which pred returns true, returning
// how many were removed. pred runs under the cache lock and must not
// call back into the cache.
func (c *Cache[K, V]) PruneFunc(pred func(key K, val V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[K, V]); pred(e.key, e.val) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
