// Package lru provides the bounded least-recently-used map underneath
// the serving layer's caches: the vector-table/ranked-answer cache and
// the idempotency tables each wrap one Cache. (The database's score
// memo keeps its own query-grouped structure, see gdb.ScoreMemo.) The
// core is deliberately policy-free — no TTLs, no counters, no key
// semantics — so each wrapper keeps its own invalidation rules
// (generation-keyed unreachability) and its own hit/miss accounting on
// top.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map from string keys to values of type V.
// All methods are safe for concurrent use. A capacity below 1 disables
// the cache entirely: every lookup misses and Put is a no-op.
type Cache[V any] struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

type entry[V any] struct {
	key string
	val V
}

// New returns a cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	return &Cache[V]{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Capacity returns the configured bound.
func (c *Cache[V]) Capacity() int { return c.capacity }

// Get returns the value under key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Contains reports whether key is cached without touching recency — a
// planning peek, not a lookup.
func (c *Cache[V]) Contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.items[key]
	return ok
}

// Put stores val under key (replacing any previous value and marking it
// most recently used), evicting least-recently-used entries while the
// cache is over capacity. It returns the number of evictions.
func (c *Cache[V]) Put(key string, val V) int {
	return c.Update(key, func(V, bool) V { return val })
}

// Update atomically merges a value under key: merge receives the
// current value (zero when absent) and returns the value to store. The
// entry becomes most recently used. Returns evictions like Put. Used
// where two writers of one key must not overwrite each other's part of
// the value.
func (c *Cache[V]) Update(key string, merge func(old V, ok bool) V) int {
	if c.capacity < 1 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		e := el.Value.(*entry[V])
		e.val = merge(e.val, true)
		c.ll.MoveToFront(el)
		return 0
	}
	var zero V
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: merge(zero, false)})
	evicted := 0
	for c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*entry[V]).key)
		evicted++
	}
	return evicted
}

// Remove drops the entry under key, reporting whether it was present.
// Unlike eviction or pruning, removal is caller-driven — the table
// cache retires a superseded key after republishing its upgraded value
// under a new one.
func (c *Cache[V]) Remove(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.ll.Remove(el)
	delete(c.items, key)
	return true
}

// PruneFunc removes every entry for which pred returns true, returning
// how many were removed. pred runs under the cache lock and must not
// call back into the cache.
func (c *Cache[V]) PruneFunc(pred func(key string, val V) bool) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	dropped := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[V]); pred(e.key, e.val) {
			c.ll.Remove(el)
			delete(c.items, e.key)
			dropped++
		}
		el = next
	}
	return dropped
}

// Len returns the number of cached entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
