package server

import (
	"slices"
	"sync/atomic"

	"skygraph/internal/gdb"
	"skygraph/internal/graph"
	"skygraph/internal/lru"
	"skygraph/internal/measure"
	"skygraph/internal/topk"
)

// Cache is a bounded LRU of per-shard query vector tables plus merged
// ranked answers, layered on the shared internal/lru core (the same
// machinery behind the idempotency tables). Entries live under a typed
// cacheKey naming the request path that builds them — complete tables
// ("all" skylines), pruned tables (plain skylines) or ranked answers
// (top-k and range) — plus everything that shapes the answer except
// the database's state: shard, canonical query hash, basis or ranking
// measure, k or radius, engine options. Each request reads only its own
// path's entries. The state an entry is exact at is recorded in the
// entry itself: a table's Generation for its shard, every shard's
// generation (gens) for a merged ranked answer. servable is the one rule
// deciding whether an entry may answer a request: the generations must
// be those the request read. A mutation of a shard makes one pass over
// the cache (sweep, from Server.maintain): what no delta proof covers is
// dropped at once, and every entry one generation behind with a
// maintenance lineage is then upgraded in place under its unchanged key
// (settle, delta.go). Tables of the other shards are not touched.
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
	// (complete tables), "pruned" (pruned tables), "topk" or "range"
	// (merged ranked answers).
	path string
	// shard is the owning shard of a table, -1 for a ranked answer (it
	// spans every shard).
	shard int
	qh    string
	// measures is the comma-joined basis of a table, or the ranking
	// measure of a ranked answer.
	measures string
	// arg is k for top-k, the radius for range, 0 for tables.
	arg  float64
	eval measure.Options
}

// cacheEntry is one cached value: a per-shard vector table (shard >= 0,
// exact at table.Generation of that shard), or a whole-database ranked
// answer (shard == -1, exact at every shard's generation in gens). lin,
// when set, is the table's maintenance lineage: a later mutation of the
// owning shard can upgrade the entry in place (Server.maintain) instead
// of invalidating it. Pruned tables carry one, complete tables none.
type cacheEntry struct {
	shard  int
	table  *gdb.VectorTable
	gens   []uint64
	ranked *rankedEntry
	lin    *tableLineage
}

// tableLineage is everything needed to evaluate a single delta row
// through the exact code path the cold build used: the query graph, its
// signature and canonical hash (both computed once per request), the
// basis and the engine budgets. Only pruned tables carry one; delta.go
// holds the proofs that maintain them.
type tableLineage struct {
	q     *graph.Graph
	qsig  *measure.Signature
	qh    string
	basis []measure.Measure
	eval  measure.Options
}

// rankedEntry is a cached ranked answer: the merged items of one
// (kind, measure, k-or-radius) query over all shards. lin carries the
// maintenance lineage; deltas counts in-place upgrades since the answer
// was cold-built.
type rankedEntry struct {
	items   []topk.Item
	inexact int
	deltas  int
	lin     *rankedLineage
}

// rankedLineage mirrors tableLineage for merged ranked answers.
type rankedLineage struct {
	kind string // "topk" or "range"
	q    *graph.Graph
	qsig *measure.Signature
	qh   string
	m    measure.Measure
	arg  float64 // k for topk, radius for range
	eval measure.Options
}

// servable reports whether e may answer a request that read gens, every
// shard's generation (Sharded.Generations): a table must be exact at
// its shard's generation, a ranked answer at all of them. It is the one
// place an entry's generation meets a request's; a lookup, the tables()
// planning peek and a flight follower all take exactly what it allows.
func servable(e *cacheEntry, gens []uint64) bool {
	if e.ranked != nil {
		return slices.Equal(e.gens, gens)
	}
	return e.table.Generation == gens[e.shard]
}

// NewCache returns an LRU holding at most capacity tables. Capacity < 1
// disables caching (every lookup misses, put is a no-op).
func NewCache(capacity int) *Cache {
	return &Cache{lru: lru.New[cacheKey, *cacheEntry](capacity)}
}

// lookup returns the entry cached under key when it is servable at
// gens, marking it most recently used. A servable entry counts as a
// hit; anything else counts as a miss unless quiet — a re-check of a key
// whose miss was already counted.
func (c *Cache) lookup(key cacheKey, gens []uint64, quiet bool) (*cacheEntry, bool) {
	e, ok := c.lru.Get(key)
	if !ok || !servable(e, gens) {
		if !quiet {
			c.misses.Add(1)
		}
		return nil, false
	}
	c.hits.Add(1)
	return e, true
}

// peek reports whether a lookup of key at gens would hit, without
// touching recency or the hit/miss counters — a planning peek.
func (c *Cache) peek(key cacheKey, gens []uint64) bool {
	e, ok := c.lru.Peek(key)
	return ok && servable(e, gens)
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

// sweep is the one cache pass of the mutation of shard that produced
// generation gen. Entries of other shards, and entries already exact at
// gen or later, are left alone. Of the rest, it collects what a delta
// proof may upgrade — lineage-carrying (pruned) tables of the shard and
// lineage-carrying ranked answers exactly one generation behind on it
// — and drops everything else at once (complete tables, entries further
// behind), counting each drop as an invalidation and a delta fallback.
func (c *Cache) sweep(shard int, gen uint64) []deltaCandidate {
	var out []deltaCandidate
	dropped := c.lru.PruneFunc(func(key cacheKey, e *cacheEntry) bool {
		var at uint64
		var lineage bool
		switch {
		case e.ranked != nil:
			at, lineage = e.gens[shard], e.ranked.lin != nil
		case e.shard == shard:
			at, lineage = e.table.Generation, e.lin != nil
		default:
			return false
		}
		if at >= gen {
			return false
		}
		if lineage && at == gen-1 {
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

// Len returns the number of cached tables.
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
	// proof existed (a complete table, a pruned table losing a skyline
	// member, a top-k answer losing a member, capped rows on a delete,
	// interleaved mutations, entries more than one generation behind).
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
