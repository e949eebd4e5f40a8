package server

import (
	"sync/atomic"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/lru"
	"skygraph/internal/measure"
	"skygraph/internal/skyline"
	"skygraph/internal/topk"
)

// Cache is a bounded LRU of query answers, layered on the shared
// internal/lru core (the same machinery behind the query-graph map).
// Every entry is one whole answer: a skyline answer's vector table or a
// ranked answer's items. Entries live under a typed
// cacheKey naming the request path that builds them — complete tables
// ("all" skylines), pruned tables (plain skylines) or ranked answers
// (top-k and range) — plus everything that shapes the
// answer except the database's state: canonical query hash, basis or
// ranking measure, k or radius, engine options. Each request reads only
// its own path's entries. The state an entry is exact at is recorded in
// the entry itself, as the database generation (gen). servable is the
// one rule deciding whether an entry may answer a request: the
// generation must be the one the request read. A mutation makes one
// pass over the cache (sweep, from Server.maintain): what no delta
// proof covers is dropped at once, and every entry one generation
// behind with a maintenance lineage is then upgraded in place under its
// unchanged key (settle, delta.go).
//
// Counters are atomics, read without the LRU lock: /stats can hammer
// the cache while queries run without contending on (or racing with)
// the hot lookup path.
type Cache struct {
	lru *lru.Cache[cacheKey, *cacheEntry]

	hits          atomic.Uint64
	misses        atomic.Uint64
	evictions     atomic.Uint64
	invalidations atomic.Uint64
	deltaApplied  atomic.Uint64
	deltaFallback atomic.Uint64
}

// cacheKey names one cached answer. It holds no generation: the entry
// under it records the state it is exact at, and servable compares that
// with what a request read.
type cacheKey struct {
	// path is the request path that builds and reads the entry: "all"
	// (a complete table), "pruned" (a pruned table), "topk" or "range"
	// (ranked answers).
	path string
	qh   string
	// measures is the comma-joined basis of a skyline answer, or the
	// ranking measure of a ranked answer.
	measures string
	// arg is k for top-k, the radius for range, 0 for skyline answers.
	arg float64
}

// cacheEntry is one cached answer, exact at generation gen. A skyline
// answer holds its vector table, whose Generation its gen is, and the
// table's skyline (tableEntry), a ranked answer its items. Entries are
// immutable once stored: an upgrade stores a successor.
type cacheEntry struct {
	gen     uint64
	table   *gdb.VectorTable
	skyline []skyline.Point
	items   []topk.Item
	// deltas counts the in-place upgrades since the cold build.
	deltas int
	// work is what the cold build cost, reported by the request that ran
	// it.
	work gdb.Work
	// lin, when set, makes the entry delta-maintainable: a later mutation
	// can upgrade it in place (Server.maintain) instead of invalidating
	// it. Pruned skyline answers and ranked answers carry one, complete
	// tables none.
	lin *lineage
}

// tableEntry is the skyline answer t, maintainable through lin when lin
// is set. Everything but the lineage derives from t, so an entry's
// generation, skyline and deltas never drift from its table's. The
// skyline is merged here, once per table, not per hit.
func tableEntry(t *gdb.VectorTable, lin *lineage) *cacheEntry {
	return &cacheEntry{gen: t.Generation, table: t, skyline: t.Skyline(), deltas: t.Deltas, work: t.Work, lin: lin}
}

// lineage is what an upgrade needs beyond the entry's key to evaluate
// a single delta row through the exact code path the cold build used:
// the query graph and its signature (computed once per request), and
// the basis of a skyline answer or the ranking measure of a ranked one.
// delta.go holds the proofs.
type lineage struct {
	q     *graph.Graph
	qsig  *measure.Signature
	basis []measure.Measure
	m     measure.Measure
}

// servable reports whether e may answer a request that read the
// database at generation gen: the entry must be exact at it. It is the
// one place an entry's generation meets a request's; a lookup and a
// flight follower both take exactly what it allows.
func servable(e *cacheEntry, gen uint64) bool {
	return e.gen == gen
}

// NewCache returns an LRU holding at most capacity answers. Capacity < 1
// disables caching (every lookup misses, put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{lru: lru.New[cacheKey, *cacheEntry](capacity)}
}

// lookup returns the entry cached under key when it is servable at
// gen, marking it most recently used. A servable entry counts as a
// hit; anything else counts as a miss unless quiet — a re-check of a key
// whose miss was already counted.
func (c *Cache) lookup(key cacheKey, gen uint64, quiet bool) (*cacheEntry, bool) {
	e, ok := c.lru.Get(key)
	if !ok || !servable(e, gen) {
		if !quiet {
			c.misses.Add(1)
		}
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// put stores e under key, evicting the least recently used entry when
// the cache is full.
func (c *Cache) put(key cacheKey, e *cacheEntry) {
	c.evictions.Add(uint64(c.lru.Put(key, e)))
}

// deltaCandidate is one cached entry a mutation may be able to upgrade
// in place, paired with its key.
type deltaCandidate struct {
	key cacheKey
	e   *cacheEntry
}

// sweep is the one cache pass of the mutation that produced generation
// gen. Entries already exact at gen or later are left alone. Of the
// rest, it collects what a delta proof may upgrade — lineage-carrying
// entries exactly one generation behind — and drops everything else at
// once (complete tables, entries further behind), counting each drop as
// an invalidation and a delta fallback.
func (c *Cache) sweep(gen uint64) []deltaCandidate {
	var out []deltaCandidate
	dropped := c.lru.PruneFunc(func(key cacheKey, e *cacheEntry) bool {
		if e.gen >= gen {
			return false
		}
		if e.lin != nil && e.gen == gen-1 {
			out = append(out, deltaCandidate{key: key, e: e})
			return false
		}
		return true
	})
	c.invalidations.Add(uint64(dropped))
	c.deltaFallback.Add(uint64(dropped))
	return out
}

// settle ends one candidate's upgrade: the entry sweep read is replaced
// in place by next, counting an applied delta, or dropped when next is
// nil (no proof held), counting an invalidation and a fallback. An
// entry replaced since the sweep — a fresh build under the same key —
// is newer than anything the upgrade derived and is left alone.
func (c *Cache) settle(cand deltaCandidate, next *cacheEntry) {
	read := func(e *cacheEntry) bool { return e == cand.e }
	if !c.lru.Replace(cand.key, read, next, next == nil) {
		return
	}
	if next == nil {
		c.invalidations.Add(1)
		c.deltaFallback.Add(1)
		return
	}
	c.deltaApplied.Add(1)
}

// Len returns the number of cached answers.
func (c *Cache) Len() int { return c.lru.Len() }

// CacheStats is a point-in-time snapshot of cache counters.
type CacheStats struct {
	Capacity      int    `json:"capacity"`
	Entries       int    `json:"entries"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"`
	// DeltaApplied counts cache entries upgraded in place across a
	// mutation; DeltaFallbacks counts entries dropped because no delta
	// proof existed (complete tables, a pruned skyline answer losing a
	// front member, a top-k answer losing a member, interleaved
	// mutations, entries more than one generation behind).
	DeltaApplied   uint64 `json:"delta_applied"`
	DeltaFallbacks uint64 `json:"delta_fallbacks"`
}

// Stats returns the current counters. Counter reads are atomic and do
// not block concurrent lookups.
func (c *Cache) Stats() CacheStats {
	return CacheStats{
		Capacity:       c.lru.Capacity(),
		Entries:        c.Len(),
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		Invalidations:  c.invalidations.Load(),
		DeltaApplied:   c.deltaApplied.Load(),
		DeltaFallbacks: c.deltaFallback.Load(),
	}
}
